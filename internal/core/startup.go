package core

import (
	"math"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// StartupProc implements §9.2: establishing synchronization among clocks
// that begin with arbitrary values, in the face of drift, delivery
// uncertainty and Byzantine faults.
//
// Rounds cannot be triggered by local times (they are arbitrarily far
// apart); instead each round has an extra READY phase. At begin-round, p
// broadcasts its local time and waits (1+ρ)(2δ+4ε), long enough to hear
// every nonfaulty clock value, estimating DIFF[q] = T_q + δ − local on each
// arrival. At the end of that interval it computes — but does not apply —
// the adjustment A = mid(reduce_f(DIFF)). It then waits a second, short
// interval before broadcasting READY, so that new-round messages cannot
// arrive before other nonfaulty processes finish their first interval; if it
// receives f+1 READY messages during the second interval it broadcasts READY
// early (the two-criteria idea from [DLS]). On receiving n−f READY messages
// it applies A and begins the next round.
//
// Lemma 20: the closeness Bⁱ at round i obeys Bⁱ⁺¹ ≤ Bⁱ/2 + 2ε + 2ρ(11δ+39ε),
// converging to about 4ε.
//
// Timer staleness: the paper filters stale TIMER interrupts with the
// condition local-time() = U (an adjustment shifts local time, breaking the
// equality). We implement the same filter structurally, by stamping each
// timer with its round number.
type StartupProc struct {
	cfg Config

	corr     clock.Local
	diff     []float64 // DIFF[q]: estimated difference to q's clock
	scratch  []float64 // reusable buffer the averager reorders
	a        float64   // A: adjustment computed this round
	asleep   bool      // ASLEEP
	earlyEnd bool      // EARLY-END
	ready    []bool    // RCVD-READY (keyed by process id)
	nReady   int
	t        clock.Local // T: local time at beginning of current round
	v        clock.Local // V: local time to broadcast READY
	vPending bool        // V timer set and not yet reached/cancelled
	round    int
}

// ClockMsg is the §9.2 round message: the sender's local time at the
// beginning of its round.
type ClockMsg struct {
	T clock.Local
}

// ReadyMsg signals readiness to begin the next round.
type ReadyMsg struct{}

// startupTimer stamps TIMER messages with the round and phase they belong
// to, so stale timers from earlier rounds are ignored.
type startupTimer struct {
	round int
	phase startupPhase
}

type startupPhase uint8

const (
	startupPhaseU startupPhase = iota + 1 // end of first waiting interval
	startupPhaseV                         // READY broadcast time
)

var (
	_ sim.Process    = (*StartupProc)(nil)
	_ sim.CorrHolder = (*StartupProc)(nil)
)

// NewStartupProc builds a start-up process. initialCorr is arbitrary —
// clocks are not synchronized; experiments draw it at random over seconds.
func NewStartupProc(cfg Config, initialCorr clock.Local) *StartupProc {
	cfg = cfg.withDefaults()
	diff := make([]float64, cfg.N)
	for i := range diff {
		diff[i] = math.Inf(-1)
	}
	return &StartupProc{
		cfg:     cfg,
		corr:    initialCorr,
		diff:    diff,
		scratch: make([]float64, cfg.N),
		asleep:  true,
		ready:   make([]bool, cfg.N),
	}
}

// Corr implements sim.CorrHolder.
func (p *StartupProc) Corr() clock.Local { return p.corr }

// Round returns the number of begin-rounds executed so far.
func (p *StartupProc) Round() int { return p.round }

func (p *StartupProc) local(ctx *sim.Context) clock.Local { return ctx.PhysNow() + p.corr }

// beginRound is the begin-round macro of §9.2.
func (p *StartupProc) beginRound(ctx *sim.Context) {
	ctx.Annotate(metrics.TagStartupRound, float64(p.round))
	p.t = p.local(ctx)
	ctx.Broadcast(ClockMsg{T: p.t})
	u := p.t + clock.Local(p.cfg.StartupWait1())
	ctx.SetTimer(u-p.corr, startupTimer{round: p.round, phase: startupPhaseU})
	p.earlyEnd = false
	p.vPending = false
	for i := range p.ready {
		p.ready[i] = false
	}
	p.nReady = 0
}

// Receive implements the five code clusters of §9.2.
func (p *StartupProc) Receive(ctx *sim.Context, m sim.Message) {
	switch {
	case m.Kind == sim.KindStart:
		if p.asleep {
			p.asleep = false
			p.beginRound(ctx)
		}

	case m.Kind == sim.KindOrdinary:
		switch pl := m.Payload.(type) {
		case ClockMsg:
			p.diff[m.From] = float64(pl.T) + p.cfg.Delta - float64(p.local(ctx))
			if p.asleep {
				p.asleep = false
				p.beginRound(ctx)
			}
		case ReadyMsg:
			p.onReady(ctx, m.From)
		}

	case m.Kind == sim.KindTimer:
		st, ok := m.Payload.(startupTimer)
		if !ok || st.round != p.round {
			return // stale timer from an earlier round
		}
		switch st.phase {
		case startupPhaseU:
			p.onFirstIntervalEnd(ctx)
		case startupPhaseV:
			if !p.earlyEnd {
				ctx.Broadcast(ReadyMsg{})
			}
			p.vPending = false
		}
	}
}

func (p *StartupProc) onFirstIntervalEnd(ctx *sim.Context) {
	copy(p.scratch, p.diff)
	av, err := p.cfg.Averager.Average(p.scratch, p.cfg.F)
	if err != nil {
		panic("core: startup averaging: " + err.Error())
	}
	if math.IsInf(av, 0) || math.IsNaN(av) {
		av = 0 // out-of-spec safeguard, as in Proc.update
	}
	p.a = av
	p.v = p.local(ctx) + clock.Local(p.cfg.StartupWait2())
	p.vPending = true
	ctx.SetTimer(p.v-p.corr, startupTimer{round: p.round, phase: startupPhaseV})
}

func (p *StartupProc) onReady(ctx *sim.Context, q sim.ProcID) {
	if !p.ready[q] {
		p.ready[q] = true
		p.nReady++
	}
	if p.nReady == p.cfg.F+1 && p.vPending && p.local(ctx) < p.v {
		ctx.Broadcast(ReadyMsg{})
		p.earlyEnd = true
	}
	if p.nReady == p.cfg.N-p.cfg.F {
		// DIFF := DIFF − A; CORR := CORR + A; begin-round.
		for i := range p.diff {
			p.diff[i] -= p.a
		}
		p.corr += clock.Local(p.a)
		ctx.Annotate(metrics.TagAdjust, p.a)
		p.round++
		p.beginRound(ctx)
	}
}

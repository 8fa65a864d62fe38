// Package st implements a Srikanth–Toueg style broadcast-based
// resynchronization algorithm [ST] (§10 of the paper), without digital
// signatures (valid since n ≥ 3f+1).
//
// When a process's logical clock reaches the next resynchronization mark
// T_k = T⁰ + kP it broadcasts (round k). A process that has received f+1
// (round k) messages joins the broadcast even if its own clock has not
// reached T_k (at least one nonfaulty process supports the round, and the
// echo collapses the spread of broadcast times). Upon receiving n−f (round
// k) messages a process *accepts* round k and resets its logical clock to
// T_k + δ (the message that triggered acceptance was in flight for about δ).
//
// Per §10: agreement is about δ+ε (better or worse than the paper's ≈4ε
// depending on the relative sizes of δ and ε — this is the crossover that
// experiment E08 reproduces), validity is optimal, and the adjustment is
// about 3(δ+ε); there are up to 2n² messages per round because of the echo.
package st

import (
	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config parameterizes the ST discipline.
type Config struct {
	analysis.Params
}

// RoundMsg announces that the sender's clock reached round k's mark (or that
// it echoes f+1 such announcements).
type RoundMsg struct {
	K int
}

// roundTimer is the timer payload for reaching a mark on the local clock.
type roundTimer struct {
	k int
}

// Proc is one ST process.
type Proc struct {
	cfg  Config
	corr clock.Local

	next      int // next round to accept
	senders   map[int]map[sim.ProcID]bool
	broadcast map[int]bool
}

var (
	_ sim.Process    = (*Proc)(nil)
	_ sim.CorrHolder = (*Proc)(nil)
)

// New builds an ST process.
func New(cfg Config, initialCorr clock.Local) *Proc {
	return &Proc{
		cfg:       cfg,
		corr:      initialCorr,
		next:      1,
		senders:   make(map[int]map[sim.ProcID]bool),
		broadcast: make(map[int]bool),
	}
}

// Corr implements sim.CorrHolder.
func (p *Proc) Corr() clock.Local { return p.corr }

// Round returns the next round to be accepted.
func (p *Proc) Round() int { return p.next }

func (p *Proc) mark(k int) clock.Local { return clock.Local(p.cfg.T0 + float64(float64(k)*p.cfg.P)) }

// Receive implements sim.Process.
func (p *Proc) Receive(ctx *sim.Context, m sim.Message) {
	switch m.Kind {
	case sim.KindStart:
		ctx.Annotate(metrics.TagRoundBegin, 0)
		ctx.SetTimer(p.mark(p.next)-p.corr, roundTimer{k: p.next})

	case sim.KindTimer:
		rt, ok := m.Payload.(roundTimer)
		if !ok || rt.k != p.next {
			return // stale timer from before a resynchronization
		}
		p.announce(ctx, rt.k)

	case sim.KindOrdinary:
		rm, ok := m.Payload.(RoundMsg)
		if !ok || rm.K < p.next {
			return
		}
		set := p.senders[rm.K]
		if set == nil {
			set = make(map[sim.ProcID]bool)
			p.senders[rm.K] = set
		}
		set[m.From] = true
		// Relay rule: f+1 distinct announcers mean at least one nonfaulty
		// process reached the mark; join the broadcast.
		if len(set) >= p.cfg.F+1 {
			p.announce(ctx, rm.K)
		}
		// Acceptance rule: n−f announcers.
		if len(set) >= p.cfg.N-p.cfg.F && rm.K >= p.next {
			p.accept(ctx, rm.K)
		}
	}
}

func (p *Proc) announce(ctx *sim.Context, k int) {
	if p.broadcast[k] {
		return
	}
	p.broadcast[k] = true
	ctx.Broadcast(RoundMsg{K: k})
}

// accept resynchronizes: local time becomes T_k + δ.
func (p *Proc) accept(ctx *sim.Context, k int) {
	target := p.mark(k) + clock.Local(p.cfg.Delta)
	before := ctx.PhysNow() + p.corr
	adj := float64(target - before)
	p.corr += clock.Local(adj)
	ctx.Annotate(metrics.TagAdjust, adj)
	ctx.Annotate(metrics.TagRoundComplete, float64(k-1))

	p.next = k + 1
	ctx.Annotate(metrics.TagRoundBegin, float64(k))
	ctx.SetTimer(p.mark(p.next)-p.corr, roundTimer{k: p.next})
	// Garbage-collect state from accepted rounds.
	for r := range p.senders {
		if r <= k {
			delete(p.senders, r)
		}
	}
	for r := range p.broadcast {
		if r <= k {
			delete(p.broadcast, r)
		}
	}
}

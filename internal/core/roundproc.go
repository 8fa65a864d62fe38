package core

import (
	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Discipline is what distinguishes one round-structured synchronization
// algorithm from another once they share §4.2's schedule: the §10 baselines
// ([LM], [MS], [M]) and E16's ablations each implement it and run on a
// RoundProc.
type Discipline interface {
	// Payload returns the message broadcast at round mark T.
	Payload(mark clock.Local) any
	// Hear keeps what the discipline needs of an ordinary message arriving
	// at the given local time (Ph + CORR).
	Hear(m sim.Message, local clock.Local)
	// Adjust returns ADJ for the round at mark T when its collection window
	// closes, and forgets what the next round must not see.
	Adjust(mark clock.Local) float64
}

// RoundProc runs a Discipline on the §4.2 schedule: broadcast at Tⁱ, collect
// for the window, add the discipline's ADJ to CORR, advance by P. It owns
// CORR, the timers and the begin/adjust/complete annotations. Proc and
// hier.Member drive their Rounds directly instead — their ordinary-message
// path is the simulator's hot loop and stays free of interface calls.
type RoundProc struct {
	d    Discipline
	corr clock.Local
	s    schedule
}

var (
	_ sim.Process    = (*RoundProc)(nil)
	_ sim.CorrHolder = (*RoundProc)(nil)
)

// NewRoundProc builds the automaton for d with the given collection window
// (p.Window() unless the window itself is under study) and initial
// correction.
func NewRoundProc(p analysis.Params, window float64, d Discipline, initialCorr clock.Local) *RoundProc {
	return &RoundProc{d: d, corr: initialCorr, s: newSchedule(p, window)}
}

// Corr implements sim.CorrHolder: the local time is Ph_p + CORR.
func (p *RoundProc) Corr() clock.Local { return p.corr }

// Round returns the current round index.
func (p *RoundProc) Round() int { return p.s.rnd }

// Receive implements the three code clusters of §4.2 around the discipline.
func (p *RoundProc) Receive(ctx *sim.Context, m sim.Message) {
	switch {
	case m.Kind == sim.KindOrdinary:
		p.d.Hear(m, ctx.PhysNow()+p.corr)

	case (m.Kind == sim.KindStart || isOwnTimer(m)) && p.s.flag == phaseBroadcast:
		ctx.Annotate(metrics.TagRoundBegin, float64(p.s.rnd))
		ctx.Broadcast(p.d.Payload(p.s.t))
		ctx.SetTimer(p.s.Collect(0)-p.corr, nil)

	case isOwnTimer(m) && p.s.flag == phaseUpdate:
		adj := p.d.Adjust(p.s.t)
		p.corr += clock.Local(adj)
		ctx.Annotate(metrics.TagAdjust, adj)
		ctx.Annotate(metrics.TagRoundComplete, float64(p.s.rnd))
		p.s.Advance()
		ctx.SetTimer(p.s.t-p.corr, nil)
	}
}

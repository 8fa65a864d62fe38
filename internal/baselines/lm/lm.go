// Package lm implements the interactive convergence algorithm (CNV) of
// Lamport and Melliar-Smith [LM], the algorithm the paper builds on (§1) and
// compares against (§10).
//
// Like the paper's algorithm it runs in rounds on a fully connected network:
// at each round every process obtains a value for each other process's clock
// and sets its clock to the *egocentric average* — the arithmetic mean over
// all n processes of the estimated clock differences, where any difference
// larger than a threshold Δ is replaced by 0 (i.e. by the process's own
// clock value). §10: the closeness of synchronization achieved is about
// 2nε', and the adjustment size about (2n+1)ε'.
package lm

import (
	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sim"
)

// Config parameterizes CNV.
type Config struct {
	analysis.Params
	// Threshold is Δ: estimated differences exceeding it are replaced by 0
	// (the process's own value). It must exceed the achievable skew or
	// nonfaulty values get discarded; [LM] relates it to the guaranteed
	// synchronization. Zero defaults to 3·(β+ε)+ρP.
	Threshold float64
}

func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = float64(3*(c.Beta+c.Eps)) + float64(c.Rho*c.P)
	}
	return c
}

// ClockMsg carries the sender's round mark (its clock reading at the moment
// of broadcast, which is Tⁱ by construction).
type ClockMsg struct {
	Mark clock.Local
}

// Proc is one CNV process: the egocentric average as a core.Discipline on
// the §4.2 schedule of the RoundProc it embeds.
type Proc struct {
	*core.RoundProc
	cfg  Config
	diff []float64 // estimated difference q's clock − own clock
	have []bool
}

// New builds a CNV process with the given initial correction.
func New(cfg Config, initialCorr clock.Local) *Proc {
	cfg = cfg.withDefaults()
	p := &Proc{cfg: cfg, diff: make([]float64, cfg.N), have: make([]bool, cfg.N)}
	p.RoundProc = core.NewRoundProc(cfg.Params, cfg.Window(), p, initialCorr)
	return p
}

// Payload implements core.Discipline.
func (p *Proc) Payload(mark clock.Local) any { return ClockMsg{Mark: mark} }

// Hear implements core.Discipline.
func (p *Proc) Hear(m sim.Message, local clock.Local) {
	if cm, ok := m.Payload.(ClockMsg); ok {
		// Estimate of q's clock minus ours, assuming the message took
		// exactly δ: (mark + δ) − local.
		p.diff[m.From] = float64(cm.Mark) + p.cfg.Delta - float64(local)
		p.have[m.From] = true
	}
}

// Adjust implements core.Discipline: the egocentric average.
func (p *Proc) Adjust(clock.Local) float64 {
	sum := 0.0
	for q := 0; q < p.cfg.N; q++ {
		if !p.have[q] {
			continue // never heard: counts as own value (difference 0)
		}
		d := p.diff[q]
		if d > p.cfg.Threshold || d < -p.cfg.Threshold {
			continue // too different: replaced by own value (0)
		}
		sum += d
	}
	for i := range p.have {
		p.have[i] = false
	}
	return sum / float64(p.cfg.N)
}

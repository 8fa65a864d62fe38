// Package ms implements the fault-tolerant averaging of Mahaney and
// Schneider's inexact agreement [MS] as a clock synchronization round
// discipline (§10 of the paper).
//
// At each round clock values are exchanged exactly as in [LM]; then every
// value that is not within tolerance τ of at least n−f of the received
// values is discarded as "clearly faulty", and the remaining values are
// averaged with the arithmetic mean. §10 highlights its pleasing, novel
// property: it degrades gracefully if more than one-third of the processes
// fail — which experiment E12 reproduces against the paper's algorithm.
package ms

import (
	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sim"
)

// Config parameterizes the MS discipline.
type Config struct {
	analysis.Params
	// Tolerance is τ: a value survives only if within τ of ≥ n−f received
	// values (itself included). Zero defaults to 2(β+ε)+ρP.
	Tolerance float64
}

func (c Config) withDefaults() Config {
	if c.Tolerance == 0 {
		c.Tolerance = float64(2*(c.Beta+c.Eps)) + float64(c.Rho*c.P)
	}
	return c
}

// ClockMsg carries the sender's round mark.
type ClockMsg struct {
	Mark clock.Local
}

// Proc is one MS process: the τ-support filter and mean as a core.Discipline
// on the §4.2 schedule of the RoundProc it embeds.
type Proc struct {
	*core.RoundProc
	cfg  Config
	diff []float64
	have []bool
}

// New builds an MS process.
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
		p.diff[m.From] = float64(cm.Mark) + p.cfg.Delta - float64(local)
		p.have[m.From] = true
	}
}

// Adjust implements core.Discipline: it discards values lacking n−f
// τ-support and averages the rest.
func (p *Proc) Adjust(clock.Local) float64 {
	received := make([]float64, 0, p.cfg.N)
	for q := 0; q < p.cfg.N; q++ {
		if p.have[q] {
			received = append(received, p.diff[q])
			p.have[q] = false
		}
	}
	need := p.cfg.N - p.cfg.F
	sum, kept := 0.0, 0
	for _, v := range received {
		support := 0
		for _, w := range received {
			if v-w <= p.cfg.Tolerance && w-v <= p.cfg.Tolerance {
				support++
			}
		}
		if support >= need {
			sum += v
			kept++
		}
	}
	if kept == 0 {
		return 0
	}
	return sum / float64(kept)
}

package exp

import (
	"math"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/multiset"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "E16",
		Title:    "Ablations: why each design choice of the algorithm is there",
		PaperRef: "§4.1 (window size, reduce_f, the δ term of ADJ)",
		Run:      runE16,
	})
}

// ablatedProc is the §4.2 averaging step with individual design choices
// removable, as a core.Discipline on the faithful schedule — deliberately
// kept out of package core so the faithful implementation stays pristine.
// Knobs:
//
//   - noReduce: apply mid over *all* arrival times (skip reduce_f) — Lemma 6
//     gone, Byzantine extremes reach the midpoint;
//   - windowScale (newAblated's argument, the RoundProc's window): multiply
//     the (1+ρ)(β+δ+ε) collection window — too small and slow nonfaulty
//     senders miss the round, exhausting the fault budget;
//   - noDeltaCorr: compute ADJ = T − AV instead of T + δ − AV — every clock
//     is dragged δ backwards per round, destroying validity.
type ablatedProc struct {
	*core.RoundProc
	cfg         core.Config
	noReduce    bool
	noDeltaCorr bool
	arr, buf    []float64 // ARR and the scratch the midpoint reorders
}

func newAblated(cfg core.Config, corr clock.Local, windowScale float64) *ablatedProc {
	p := &ablatedProc{cfg: cfg, arr: make([]float64, cfg.N), buf: make([]float64, cfg.N)}
	for i := range p.arr {
		p.arr[i] = math.Inf(-1)
	}
	p.RoundProc = core.NewRoundProc(cfg.Params, cfg.Window()*windowScale, p, corr)
	return p
}

func (p *ablatedProc) Payload(mark clock.Local) any { return core.TMsg{Mark: mark} }

func (p *ablatedProc) Hear(m sim.Message, local clock.Local) { p.arr[m.From] = float64(local) }

func (p *ablatedProc) Adjust(mark clock.Local) float64 {
	f := p.cfg.F
	if p.noReduce {
		f = 0
	}
	copy(p.buf, p.arr)
	av, err := multiset.Midpoint.Average(p.buf, f)
	if err != nil || math.IsInf(av, 0) || math.IsNaN(av) {
		av = float64(mark) + p.cfg.Delta // skip adjusting
	}
	if p.noDeltaCorr {
		return float64(mark) - av
	}
	return float64(mark) + p.cfg.Delta - av
}

// runE16 measures each ablation against the faithful algorithm on the same
// two-faced workload and reports which paper property breaks.
func runE16() ([]*Table, error) {
	cfg := core.Config{Params: analysis.Default(7, 2)}
	// Both adversaries send early to even recipients and late to odd ones:
	// per recipient the two planted arrivals sit on the same side, which
	// reduce_f trims exactly and a plain midpoint pays for in full. The lag
	// is chosen so the late copy arrives at Lag+δ±ε — always after the
	// (1+ρ)(β+δ+ε) window closes — leaving a one-round-stale extreme in the
	// recipient's ARR for the *next* update: reduce_f discards it, a plain
	// midpoint is dragged by ≈P/2, so the Lemma 6 failure is structural
	// rather than dependent on the delay stream.
	parity := func(to sim.ProcID) bool { return int(to)%2 == 0 }
	mkTwoFaced := func() sim.Process {
		return &faults.TwoFaced{Cfg: cfg, Lead: 8e-3, Lag: 8e-3, EarlyTo: parity}
	}
	mix := map[sim.ProcID]func() sim.Process{
		5: mkTwoFaced,
		6: mkTwoFaced,
	}
	type variant struct {
		name   string
		breaks string
		mk     func(id sim.ProcID, corr clock.Local) sim.Process
	}
	variants := []variant{
		{"faithful §4.2", "nothing", func(_ sim.ProcID, c clock.Local) sim.Process {
			return core.NewProc(cfg, c)
		}},
		{"no reduce_f (plain midpoint)", "agreement (Lemma 6)", func(_ sim.ProcID, c clock.Local) sim.Process {
			p := newAblated(cfg, c, 1)
			p.noReduce = true
			return p
		}},
		{"window ×0.3", "validity (arrivals cross round boundaries)", func(_ sim.ProcID, c clock.Local) sim.Process {
			return newAblated(cfg, c, 0.3)
		}},
		{"no δ in ADJ", "validity (Thm 19)", func(_ sim.ProcID, c clock.Local) sim.Process {
			p := newAblated(cfg, c, 1)
			p.noDeltaCorr = true
			return p
		}},
	}

	t := &Table{
		ID:       "E16",
		Title:    "Removing one design choice at a time (n=7, f=2 two-faced)",
		PaperRef: "§4.1",
		Columns:  []string{"variant", "steady skew", "agreement ≤ γ", "validity holds", "expected to break"},
	}
	sweep := Sweep[variant]{
		Name:   "E16",
		Params: variants,
		Build: func(v variant) (Workload, error) {
			return Workload{Cfg: cfg, Rounds: 15, Faults: mix, Seed: 21, MakeProc: v.mk}, nil
		},
		Each: func(v variant, _ Workload, res *Result) error {
			skew := res.Skew.MaxAfterWarmup()
			t.AddRow(v.name, FmtDur(skew),
				Verdict(skew <= cfg.Gamma()),
				Verdict(res.Validity.WorstViolation() <= 0),
				v.breaks)
			return nil
		},
	}
	if err := sweep.Run(); err != nil {
		return nil, err
	}
	t.AddNote("γ = %s; the faithful row holds everything, each ablation loses the property its mechanism protects", FmtDur(cfg.Gamma()))
	t.AddNote("window ×0.3 closes before any arrival (δ−ε > 0.3·window), so each update consumes the *previous* round's arrivals: the clocks leap ≈P per round together — agreement survives, validity does not")
	return []*Table{t}, nil
}

package exp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/baselines/lm"
	"repro/internal/baselines/st"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp/runner"
	"repro/internal/faults"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "E18",
		Title:    "Lower-bound sharpness: adaptive retiming vs the ε(1−1/n) bound",
		PaperRef: "§1 (Lundelius–Lynch lower bound); Thm 16",
		Run:      runE18,
	})
}

// witnessFraction is the fraction of ε(1−1/n) the adaptive adversary must
// demonstrably reach for the reproduction to count as sharp.
const witnessFraction = 0.5

// e18Substrate is the shared setup of both E18 tables: delays declared with
// the full [δ−ε, δ+ε] band but sampled at the center δ (sim.CenterDelay), so
// the ε-freedom belongs entirely to whoever manipulates the delivery
// pipeline, and clocks that start essentially perfectly synchronized (1 µs
// spread — far inside A4), so any steady skew is manufactured by the
// adversary rather than inherited from the initial state.
func e18Substrate(w *Workload) {
	cfg := w.Cfg
	w.Delay = sim.CenterDelay{Delta: cfg.Delta, Eps: cfg.Eps}
	w.InitialSpread = 1e-6
	w.Rounds = 20
}

// runE18 reproduces the paper's second half experimentally. The companion
// lower bound says no algorithm can synchronize closer than ε(1−1/n): an
// adversary that retimes deliveries inside the [δ−ε, δ+ε] uncertainty
// window can always manufacture that much skew, because the shifted
// executions are indistinguishable from honest ones. Table E18a pits the
// adaptive skewmax adversary (delivery-pipeline retiming, zero faulty
// processes) against the paper's algorithm and the [LM]/[ST] baselines and
// requires it to reach at least witnessFraction of the bound on the
// paper's algorithm. Table E18b fixes (n, f) and compares the adaptive
// strategies with every schedule-driven strategy from the E17 matrix on
// the identical substrate: with the ε-noise removed from the network, the
// schedule-driven Byzantine automata must all fall measurably short of
// what the retiming adversary achieves — locating the irreducible skew in
// the delay uncertainty itself, exactly where the shifting argument puts
// it.
func runE18() ([]*Table, error) {
	ta, err := runE18Bound()
	if err != nil {
		return nil, err
	}
	tb, err := runE18Strategies()
	if err != nil {
		return nil, err
	}
	return []*Table{ta, tb}, nil
}

// runE18Bound is table E18a: skewmax vs the bound across (n, algorithm).
func runE18Bound() (*Table, error) {
	t := &Table{
		ID:       "E18",
		Title:    "Adaptive skewmax adversary vs the ε(1−1/n) lower bound (f = 0, center-δ delays)",
		PaperRef: "§1 lower bound",
		Columns:  []string{"algorithm", "n", "worst skew", "ε(1−1/n)", "skew/bound", "witness ≥ ½·bound"},
	}
	type alg struct {
		name string
		mk   func(cfg core.Config) func(id sim.ProcID, corr clock.Local) sim.Process
		wl   bool // the paper's algorithm: invariants checked, witness enforced
	}
	algs := []alg{
		{"Welch-Lynch (this paper)", func(cfg core.Config) func(sim.ProcID, clock.Local) sim.Process {
			return func(_ sim.ProcID, c clock.Local) sim.Process { return core.NewProc(cfg, c) }
		}, true},
		{"Lamport/Melliar-Smith CNV", func(cfg core.Config) func(sim.ProcID, clock.Local) sim.Process {
			lmc := lm.Config{Params: cfg.Params}
			return func(_ sim.ProcID, c clock.Local) sim.Process { return lm.New(lmc, c) }
		}, false},
		{"Srikanth/Toueg", func(cfg core.Config) func(sim.ProcID, clock.Local) sim.Process {
			stc := st.Config{Params: cfg.Params}
			return func(_ sim.ProcID, c clock.Local) sim.Process { return st.New(stc, c) }
		}, false},
	}
	ns := []int{4, 7, 10}
	if SweepTier() >= TierFull {
		ns = append(ns, 13)
	}
	type point struct {
		alg alg
		n   int
	}
	var points []point
	for _, a := range algs {
		for _, n := range ns {
			points = append(points, point{alg: a, n: n})
		}
	}
	skewmax, err := faults.ByName("skewmax")
	if err != nil {
		return nil, fmt.Errorf("E18: %w", err)
	}
	sweep := Sweep[point]{
		Name:   "E18",
		Params: points,
		Build: func(p point) (Workload, error) {
			cfg := core.Config{Params: analysis.Default(p.n, 0)}
			_, adv := faults.Place(skewmax, cfg, nil, runner.DeriveSeed(18, p.n), 0)
			w := Workload{
				Cfg:             cfg,
				MakeProc:        p.alg.mk(cfg),
				Adversary:       adv,
				Seed:            18,
				CheckInvariants: p.alg.wl,
			}
			e18Substrate(&w)
			return w, nil
		},
		Each: func(p point, w Workload, res *Result) error {
			bound := w.Cfg.SkewLowerBound()
			skew := res.Skew.MaxAfterWarmup()
			// The witness: the spread over the whole run, from t = 0, reached
			// the target fraction of the bound.
			achieved := res.Skew.Max() >= witnessFraction*bound
			if p.alg.wl {
				// The clamp keeps the adversary inside A1–A3, so the upper
				// bounds must keep holding while the lower bound is driven.
				if !res.Invariants.Ok() {
					return fmt.Errorf("%s n=%d: clamped adversary broke an invariant:\n%s",
						p.alg.name, p.n, res.Invariants.Summary())
				}
				if !achieved {
					return fmt.Errorf("%s n=%d: skewmax reached only %v of the ε(1−1/n) bound %v (want ≥ %.0f%%)",
						p.alg.name, p.n, skew, bound, 100*witnessFraction)
				}
			}
			t.AddRow(p.alg.name, fmtInt(p.n), FmtDur(skew), FmtDur(bound),
				FmtRatio(skew/bound), Verdict(achieved))
			return nil
		},
	}
	if err := sweep.Run(); err != nil {
		return nil, fmt.Errorf("E18: %w", err)
	}
	t.AddNote("delays sampled at δ exactly; every retime clamped to [δ−ε, δ+ε], so A1–A3 hold by construction (invariants re-checked on the Welch-Lynch rows)")
	t.AddNote("the adversary starts from ~0 spread and must manufacture ≥ %.0f%% of ε(1−1/n); Welch-Lynch rows enforce the witness", 100*witnessFraction)
	return t, nil
}

// runE18Strategies is table E18b: on the same substrate, the adaptive
// strategies against every schedule-driven strategy of the E17 matrix.
func runE18Strategies() (*Table, error) {
	const (
		n = 7
		f = 2
	)
	cfg := core.Config{Params: analysis.Default(n, f)}
	bound := cfg.SkewLowerBound()
	t := &Table{
		ID:       "E18b",
		Title:    fmt.Sprintf("Adaptive vs schedule-driven adversaries (n=%d, center-δ delays)", n),
		PaperRef: "§1 lower bound; Thms 4(a), 16, 19",
		Columns:  []string{"strategy", "kind", "f", "worst skew", "skew/bound"},
	}
	type cell struct {
		strat faults.Strategy
		idx   int
	}
	var cells []cell
	// Adaptive rows first, then the E17 strategy space in registry order.
	for _, name := range []string{"skewmax", "splitter"} {
		s, err := faults.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("E18b: %w", err)
		}
		cells = append(cells, cell{strat: s, idx: len(cells)})
	}
	for _, s := range faults.ScheduleDriven() {
		cells = append(cells, cell{strat: s, idx: len(cells)})
	}
	var skewmaxSkew float64
	worstSched, worstSchedName := 0.0, ""
	sweep := Sweep[cell]{
		Name:   "E18b",
		Params: cells,
		Build: func(c cell) (Workload, error) {
			w := Workload{Cfg: cfg, Seed: 18}
			w.Faults, w.Adversary = faults.Place(c.strat, cfg, nil, runner.DeriveSeed(18, c.idx), 0)
			e18Substrate(&w)
			return w, nil
		},
		Each: func(c cell, w Workload, res *Result) error {
			skew := res.Skew.MaxAfterWarmup()
			kind := "schedule"
			if c.strat.Adaptive() {
				kind = "adaptive"
			} else if skew > worstSched {
				worstSched, worstSchedName = skew, c.strat.Name
			}
			if c.strat.Name == "skewmax" {
				skewmaxSkew = skew
			}
			t.AddRow(c.strat.Name, kind, fmtInt(len(w.Faults)), FmtDur(skew), FmtRatio(skew/bound))
			return nil
		},
	}
	if err := sweep.Run(); err != nil {
		return nil, fmt.Errorf("E18b: %w", err)
	}
	if skewmaxSkew < witnessFraction*bound {
		return nil, fmt.Errorf("E18b: skewmax reached %v, below %.0f%% of the bound %v", skewmaxSkew, 100*witnessFraction, bound)
	}
	if worstSched >= skewmaxSkew {
		return nil, fmt.Errorf("E18b: schedule-driven strategy %s reached %v, not measurably short of skewmax's %v — the separation claim failed",
			worstSchedName, worstSched, skewmaxSkew)
	}
	t.AddNote("best schedule-driven strategy (%s) reaches %s; the adaptive skewmax reaches %s of an ε(1−1/n) bound of %s — with network noise at zero, only retiming inside the uncertainty window manufactures bound-scale skew",
		worstSchedName, FmtDur(worstSched), FmtDur(skewmaxSkew), FmtDur(bound))
	return t, nil
}

package exp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exp/runner"
	"repro/internal/faults"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "E17",
		Title:    "Adversary conformance matrix: every invariant vs every strategy",
		PaperRef: "Theorems 4(a), 16, 19; A2 sharpness ([DHS])",
		Run:      runE17,
	})
}

// runE17 is the theorem-conformance harness. Part one crosses every
// registered schedule-driven adversary strategy (internal/faults) with an
// (n, f) grid and two delay models, running each cell with the
// internal/invariant checkers attached: agreement, validity, monotonicity
// and the adjustment bound must all hold whenever f < n/3, no matter what
// the adversary does. (Adaptive strategies — the ones that react through
// the engine's sim.Adversary retiming — have their own harness, the
// lower-bound experiment E18, so registering one leaves this matrix's
// pinned tables untouched.) Part two is the sharpness check: the same
// machinery with f+1 colluders in an f-sized system must break agreement
// for at least one strategy — if it cannot, the matrix is testing a hollow
// claim.
func runE17() ([]*Table, error) {
	t1 := &Table{
		ID:       "E17",
		Title:    "f < n/3: all theorem invariants hold against every adversary strategy",
		PaperRef: "Thms 4(a), 16, 19",
		Columns:  []string{"strategy", "n", "f", "delay", "skew/γ", "agreement", "validity", "monotone", "adj bound"},
	}
	type gridNF struct{ n, f int }
	grid := []gridNF{{4, 1}, {7, 2}, {10, 3}}
	if SweepTier() >= TierFull {
		grid = append(grid, gridNF{13, 4})
	}
	// Nightly-only stress tier: 31- and 63-process systems per strategy ×
	// delay model — ~n² messages a round through the calendar scheduler,
	// the regime the per-push grid never reaches — each cell run at three
	// derived seeds and aggregated into one row (worst skew, AND-ed
	// verdicts). Additive-only so the golden tables (pinned without the
	// stress tier) stay byte-identical.
	const stressSeeds = 3
	var stress []gridNF
	if SweepTier() >= TierStress {
		stress = []gridNF{{31, 10}, {63, 20}}
	}
	type point struct {
		strat   faults.Strategy
		n, f    int
		delay   string
		seedIdx int // 0 for per-push rows; 0..stressSeeds-1 for stress cells
		seeds   int // trials aggregated into this cell's row
		idx     int
	}
	var points []point
	for _, s := range faults.ScheduleDriven() {
		for _, nf := range grid {
			for _, d := range []string{"uniform", "extremal"} {
				points = append(points, point{strat: s, n: nf.n, f: nf.f, delay: d, seeds: 1, idx: len(points)})
			}
		}
		for _, nf := range stress {
			for _, d := range []string{"uniform", "extremal"} {
				for k := 0; k < stressSeeds; k++ {
					points = append(points, point{strat: s, n: nf.n, f: nf.f, delay: d, seedIdx: k, seeds: stressSeeds, idx: len(points)})
				}
			}
		}
	}
	// Aggregation state for multi-seed stress cells; Each runs sequentially
	// in Params order, so one accumulator suffices.
	var aggRatio float64
	var aggAgree, aggValid, aggMono, aggAdj bool
	sweep := Sweep[point]{
		Name:   "E17",
		Params: points,
		Build: func(p point) (Workload, error) {
			cfg := core.Config{Params: analysis.Default(p.n, p.f)}
			wseed := int64(7)
			if p.seeds > 1 {
				wseed = runner.DeriveSeed(7, p.seedIdx)
			}
			w := Workload{Cfg: cfg, Rounds: 12, Seed: wseed, CheckInvariants: true}
			w.Faults, _ = faults.Place(p.strat, cfg, nil, runner.DeriveSeed(17, p.idx), 0)
			if p.delay == "extremal" {
				w.Delay = sim.ExtremalDelay{Delta: cfg.Delta, Eps: cfg.Eps}
			}
			return w, nil
		},
		Each: func(p point, w Workload, res *Result) error {
			inv := res.Invariants
			for _, c := range inv.Checkers() {
				if c.Checked() == 0 {
					return fmt.Errorf("%s × (n=%d, f=%d, %s): checker %s evaluated nothing — a vacuous pass",
						p.strat.Name, p.n, p.f, p.delay, c.Name())
				}
			}
			ratio := res.Skew.MaxAfterWarmup() / w.Cfg.Gamma()
			if p.seedIdx == 0 {
				aggRatio, aggAgree, aggValid, aggMono, aggAdj = 0, true, true, true, true
			}
			if ratio > aggRatio {
				aggRatio = ratio
			}
			aggAgree = aggAgree && inv.Agreement.Ok()
			aggValid = aggValid && inv.Validity.Ok()
			aggMono = aggMono && inv.Monotonic.Ok()
			aggAdj = aggAdj && inv.Adjustment.Ok()
			if p.seedIdx < p.seeds-1 {
				return nil // stress cell: keep accumulating
			}
			t1.AddRow(p.strat.Name, fmtInt(p.n), fmtInt(p.f), p.delay,
				FmtRatio(aggRatio),
				Verdict(aggAgree),
				Verdict(aggValid),
				Verdict(aggMono),
				Verdict(aggAdj))
			return nil
		},
	}
	if err := sweep.Run(); err != nil {
		return nil, fmt.Errorf("E17: %w", err)
	}
	t1.AddNote("%d strategies × %d (n, f) points × 2 delay models; every cell must read ok — the paper's bound is adversary-independent", len(faults.ScheduleDriven()), len(grid))
	if len(stress) > 0 {
		t1.AddNote("stress tier: n ∈ {31, 63} cells aggregate %d derived-seed trials each (worst skew, AND-ed verdicts)", stressSeeds)
	}

	t2, err := runE17Sharpness()
	if err != nil {
		return nil, err
	}
	return []*Table{t1, t2}, nil
}

// runE17Sharpness drives f+1 = 3 colluders against a system engineered for
// f = 2 (n = 7), with delays pinned to the adversarial extremes — the [DHS]
// regime where synchronization is impossible without authentication. At
// least one strategy must break the agreement invariant, demonstrating the
// n ≥ 3f+1 requirement is sharp rather than conservative.
func runE17Sharpness() (*Table, error) {
	t := &Table{
		ID:       "E17b",
		Title:    "Sharpness at f ≥ n/3: 3 colluders in an f=2 system must defeat some strategy",
		PaperRef: "[DHS]; A2",
		Columns:  []string{"strategy", "actual faults", "steady skew", "vs γ", "agreement"},
	}
	cfg := core.Config{Params: analysis.Default(7, 2)}
	const actual = 3 // > n/3, violating A2 on purpose
	type attack struct {
		name string
		mix  func() map[sim.ProcID]func() sim.Process
	}
	registryMix := func(name string) func() map[sim.ProcID]func() sim.Process {
		return func() map[sim.ProcID]func() sim.Process {
			s, err := faults.ByName(name)
			if err != nil {
				panic(err)
			}
			mix, _ := faults.Place(s, cfg, faults.TopIDs(actual, cfg.N), 3, 0)
			return mix
		}
	}
	attacks := []attack{
		// The engineered worst case: one coordinated plan, pull just inside
		// the collection window, split chosen to isolate two nonfaulty
		// processes — the E05b attack expressed through the clique library.
		{"clique (9ms coordinated split)", func() map[sim.ProcID]func() sim.Process {
			members := faults.NewClique(cfg, actual, 3, faults.CliqueTuning{
				Lead: 9e-3, Lag: 9e-3,
				EarlyTo: func(to sim.ProcID) bool { return int(to) < 2 },
			})
			return faults.MixProcs(faults.TopIDs(actual, cfg.N), members)
		}},
		{"clique (registry defaults)", registryMix("clique")},
		{"edge-rider", registryMix("edge-rider")},
		{"drift-max", registryMix("drift-max")},
	}
	broken := 0
	sweep := Sweep[attack]{
		Name:   "E17b",
		Params: attacks,
		Build: func(a attack) (Workload, error) {
			return Workload{
				Cfg:             cfg,
				Rounds:          25,
				Faults:          a.mix(),
				Seed:            3,
				Delay:           sim.ExtremalDelay{Delta: cfg.Delta, Eps: cfg.Eps},
				CheckInvariants: true,
			}, nil
		},
		Each: func(a attack, _ Workload, res *Result) error {
			skew := res.Skew.MaxAfterWarmup()
			gamma := cfg.Gamma()
			rel := "within γ"
			switch {
			case skew > 100*gamma:
				rel = "diverged"
			case skew > gamma:
				rel = fmt.Sprintf("%.1f× γ", skew/gamma)
			}
			ok := res.Invariants.Agreement.Ok()
			if !ok {
				broken++
			}
			cell := "held"
			if !ok {
				cell = "broken"
			}
			t.AddRow(a.name, fmtInt(actual), FmtDur(skew), rel, cell)
			return nil
		},
	}
	if err := sweep.Run(); err != nil {
		return nil, fmt.Errorf("E17b: %w", err)
	}
	if broken == 0 {
		return nil, fmt.Errorf("E17b: no strategy broke agreement at f ≥ n/3 — the sharpness check failed")
	}
	t.AddNote("%d of %d attacks broke agreement; with ≤ f faults every one of these strategies is tolerated (table E17)", broken, len(attacks))
	return t, nil
}

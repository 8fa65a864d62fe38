package exp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "E05",
		Title:    "Fault tolerance at the n = 3f+1 boundary",
		PaperRef: "Assumption A2; [DHS] impossibility",
		Run:      runE05,
	})
}

// runE05 sweeps f for n = 3f+1 across fault strategies (agreement must
// hold), then runs f+1 adversaries in an f-sized system (agreement may
// fail — the [DHS] boundary). The strategies come from the adversary
// registry in internal/faults (the full registry is crossed with the
// invariant checkers in E17; this sweep tracks the skew numbers for the
// original five behaviors as f grows).
func runE05() ([]*Table, error) {
	strategies := []string{"silent", "two-faced", "noise", "stale-replay", "crash-mid-run"}

	t1 := &Table{
		ID:       "E05",
		Title:    "n = 3f+1: steady-state skew under f Byzantine processes stays within γ",
		PaperRef: "A2",
		Columns:  []string{"f", "n", "strategy", "paper γ", "measured", "holds"},
	}
	type point struct {
		f, n     int
		strategy string
	}
	fs := []int{1, 2, 3, 4}
	if SweepTier() >= TierFull {
		// Cheap since the parallel runner + zero-alloc engine: n up to 25.
		fs = append(fs, 6, 8)
	}
	var points []point
	for _, f := range fs {
		for _, s := range strategies {
			points = append(points, point{f: f, n: 3*f + 1, strategy: s})
		}
	}
	sweep1 := Sweep[point]{
		Name:   "E05",
		Params: points,
		Build: func(p point) (Workload, error) {
			cfg := core.Config{Params: analysis.Default(p.n, p.f)}
			s, err := faults.ByName(p.strategy)
			if err != nil {
				return Workload{}, err
			}
			mix, _ := faults.Place(s, cfg, nil, 3, 0)
			return Workload{Cfg: cfg, Rounds: 12, Faults: mix, Seed: 3}, nil
		},
		Each: func(p point, w Workload, res *Result) error {
			meas := res.Skew.MaxAfterWarmup()
			gamma := w.Cfg.Gamma()
			t1.AddRow(fmtInt(p.f), fmtInt(p.n), p.strategy, FmtDur(gamma), FmtDur(meas), Verdict(meas <= gamma))
			return nil
		},
	}
	if err := sweep1.Run(); err != nil {
		return nil, fmt.Errorf("E05: %w", err)
	}

	t2 := &Table{
		ID:       "E05b",
		Title:    "Exceeding the boundary: f+1 two-faced adversaries in an f-sized system",
		PaperRef: "[DHS]: impossible without authentication when n ≤ 3f",
		Columns:  []string{"system f", "actual faults", "measured skew", "vs γ"},
	}
	cfg := core.Config{Params: analysis.Default(7, 2)}
	sweep2 := Sweep[int]{
		Name:   "E05b",
		Params: []int{2, 3},
		Build: func(actual int) (Workload, error) {
			mix := make(map[sim.ProcID]func() sim.Process, actual)
			for i := 0; i < actual; i++ {
				id := sim.ProcID(6 - i)
				mix[id] = func() sim.Process {
					return &faults.TwoFaced{Cfg: cfg, Lead: 9e-3, Lag: 9e-3,
						EarlyTo: func(to sim.ProcID) bool { return int(to) < 2 }}
				}
			}
			return Workload{
				Cfg: cfg, Rounds: 25, Faults: mix, Seed: 3,
				Delay: sim.ExtremalDelay{Delta: cfg.Delta, Eps: cfg.Eps},
			}, nil
		},
		Each: func(actual int, _ Workload, res *Result) error {
			meas := res.Skew.Max()
			rel := "within γ"
			cell := FmtDur(meas)
			switch {
			case meas > 100*cfg.Gamma():
				rel = "diverged — guarantee lost"
			case meas > cfg.Gamma():
				rel = fmt.Sprintf("%.1f× γ — guarantee lost", meas/cfg.Gamma())
			}
			t2.AddRow("2", fmtInt(actual), cell, rel)
			return nil
		},
	}
	if err := sweep2.Run(); err != nil {
		return nil, err
	}
	t2.AddNote("with f+1 coordinated two-faced faults the skew exceeds the f-fault guarantee, as A2 requires")
	return []*Table{t1, t2}, nil
}

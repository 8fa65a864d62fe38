package exp

import (
	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
)

func init() {
	register(Experiment{
		ID:       "E10",
		Title:    "k exchanges per round",
		PaperRef: "§7: β ≥ 4ε + 2ρP·2ᵏ/(2ᵏ−1)",
		Run:      runE10,
	})
}

// runE10 sweeps k with the exchanges spread across a long, high-drift round.
// Two observable effects: the per-round βᵢ floor stays below the paper's
// k-dependent bound, and the intra-round skew shrinks roughly like 1/k
// because clocks are corrected k times as often.
func runE10() ([]*Table, error) {
	params := analysis.Params{
		N: 7, F: 2,
		Rho: 2e-4, Delta: 10e-3, Eps: 0.2e-3,
		Beta: 6e-3, P: 5.0, T0: 0,
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:       "E10",
		Title:    "Steady-state β and skew vs exchanges per round (ρ=2e−4, P=5s)",
		PaperRef: "§7",
		Columns:  []string{"k", "paper βₖ floor", "measured steady β", "β ≤ floor", "steady max skew"},
	}
	sweep := Sweep[int]{
		Name:   "E10",
		Params: []int{1, 2, 3, 4},
		Build: func(k int) (Workload, error) {
			cfg := core.Config{Params: params, K: k, SubPeriod: params.P / float64(k)}
			return Workload{
				Cfg:    cfg,
				Rounds: 14,
				Drift:  clock.ConstantDrift{RhoBound: params.Rho},
				Seed:   31,
			}, nil
		},
		Each: func(k int, _ Workload, res *Result) error {
			betas := res.Rounds.BetaSeries()
			steadyB := betas[len(betas)-1]
			floor := params.BetaFloorK(k)
			t.AddRow(fmtInt(k), FmtDur(floor), FmtDur(steadyB), Verdict(steadyB <= floor),
				FmtDur(res.Skew.MaxAfterWarmup()))
			return nil
		},
	}
	if err := sweep.Run(); err != nil {
		return nil, err
	}
	t.AddNote("paper: βₖ approaches 4ε+2ρP as k grows (4ε+2ρP = %s here)", FmtDur(float64(4*params.Eps)+float64(2*params.Rho*params.P)))
	t.AddNote("the skew column shows the additional practical benefit of spreading the k corrections across the round")
	return []*Table{t}, nil
}

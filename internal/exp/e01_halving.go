package exp

import (
	"repro/internal/analysis"
	"repro/internal/core"
)

func init() {
	register(Experiment{
		ID:       "E01",
		Title:    "Per-round halving of clock separation and the 4ε+4ρP floor",
		PaperRef: "Theorem 4(c), §7 closing discussion",
		Run:      runE01,
	})
}

// runE01 starts the clocks far apart (but within the window) and tracks the
// measured per-round spread βᵢ of round beginnings. The paper predicts
// βᵢ₊₁ ≈ βᵢ/2 + 2ε + 2ρP, converging to a floor of about 4ε + 4ρP.
// A single execution: the per-round halving is one trajectory, so there is
// nothing to fan out.
func runE01() ([]*Table, error) {
	cfg := core.Config{Params: analysis.Default(7, 2)}
	res, err := Run(Workload{Cfg: cfg, Rounds: 14, InitialSpread: 8e-3, Seed: 11})
	if err != nil {
		return nil, err
	}
	betas := res.Rounds.BetaSeries()
	floor := cfg.BetaFloor()

	t := &Table{
		ID:       "E01",
		Title:    "Measured βᵢ per round vs the paper's halving recurrence",
		PaperRef: "Thm 4(c); §7: β ≈ 4ε+4ρP",
		Columns:  []string{"round", "measured βᵢ", "paper bound βᵢ₋₁/2+2ε+2ρP", "within"},
	}
	prev := 0.0
	for i, b := range betas {
		bound := "-"
		within := "-"
		if i > 0 {
			bb := float64(prev/2) + float64(2*cfg.Eps) + float64(2*cfg.Rho*cfg.P)
			bound = FmtDur(bb)
			within = Verdict(b <= bb*1.05)
		}
		t.AddRow(fmtInt(i), FmtDur(b), bound, within)
		prev = b
	}
	t.AddNote("floor 4ε+4ρP = %s; steady-state measured β = %s", FmtDur(floor), FmtDur(betas[len(betas)-1]))
	t.AddNote("initial spread %s deliberately exceeds β to make the halving visible", FmtDur(8e-3))
	return []*Table{t}, nil
}

package exp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
)

func init() {
	register(Experiment{
		ID:       "E02",
		Title:    "γ-agreement across parameter regimes",
		PaperRef: "Theorem 16",
		Run:      runE02,
	})
}

// runE02 measures max |L_p(t) − L_q(t)| over six parameter sets and checks
// it against the closed-form γ of Theorem 16.
func runE02() ([]*Table, error) {
	type regime struct {
		name               string
		rho, delta, eps, p float64
	}
	regimes := []regime{
		{"default", 1e-5, 10e-3, 1e-3, 1.0},
		{"tight eps", 1e-5, 10e-3, 0.2e-3, 1.0},
		{"loose eps", 1e-5, 20e-3, 4e-3, 1.0},
		{"high drift", 1e-4, 10e-3, 1e-3, 1.0},
		{"long round", 1e-5, 10e-3, 1e-3, 5.0},
		{"fast lan", 1e-6, 1e-3, 0.1e-3, 0.5},
	}
	t := &Table{
		ID:       "E02",
		Title:    "Measured worst-case skew vs γ = β+ε+ρ(7β+3δ+7ε)+O(ρ²)",
		PaperRef: "Theorem 16",
		Columns:  []string{"regime", "ρ", "δ", "ε", "P", "β", "paper γ", "measured", "ratio", "holds"},
	}
	sweep := Sweep[regime]{
		Name:   "E02",
		Params: regimes,
		Build: func(r regime) (Workload, error) {
			params := analysis.Params{
				N: 7, F: 2,
				Rho: r.rho, Delta: r.delta, Eps: r.eps, P: r.p,
				// β chosen just above its feasibility floor for the regime.
				Beta: float64(4*r.eps) + float64(4*r.rho*r.p) + float64(r.eps/2) + 1e-4,
			}
			if err := params.Validate(); err != nil {
				return Workload{}, fmt.Errorf("%s: %w", r.name, err)
			}
			return Workload{Cfg: core.Config{Params: params}, Rounds: 15, Seed: 5}, nil
		},
		Each: func(r regime, w Workload, res *Result) error {
			params := w.Cfg.Params
			gamma := params.Gamma()
			meas := res.Skew.Max()
			t.AddRow(r.name,
				fmt.Sprintf("%.0e", r.rho), FmtDur(r.delta), FmtDur(r.eps), FmtDur(r.p), FmtDur(params.Beta),
				FmtDur(gamma), FmtDur(meas), FmtRatio(meas/gamma), Verdict(meas <= gamma))
			return nil
		},
	}
	if err := sweep.Run(); err != nil {
		return nil, err
	}
	t.AddNote("measured/γ well below 1 is expected: γ is a worst-case bound over all executions")
	return []*Table{t}, nil
}

func fmtInt(i int) string { return fmt.Sprintf("%d", i) }

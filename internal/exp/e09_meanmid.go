package exp

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exp/runner"
	"repro/internal/faults"
	"repro/internal/multiset"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "E09",
		Title:    "Mean vs midpoint averaging as n grows with f fixed",
		PaperRef: "§7 end: mean converges at rate f/(n−2f), error → ≈2ε",
		Run:      runE09,
	})
}

// runE09 has two parts. First, the pure convergence-rate claim, measured in
// the synchronous approximate-agreement substrate where the rate is not
// masked by delay noise: one round's contraction under the spread adversary
// versus f/(n−2f) (mean) and 1/2 (midpoint). Second, the end-to-end clock
// algorithm's steady skew with both averagers, showing the mean's advantage
// as n grows (error → ≈2ε instead of 4ε).
func runE09() ([]*Table, error) {
	t1 := &Table{
		ID:       "E09",
		Title:    "One-round contraction under the spread adversary (f=1)",
		PaperRef: "§7, [DLPSW]",
		Columns:  []string{"n", "mean: measured", "mean: paper f/(n−2f)", "midpoint: measured", "midpoint: paper 1/2"},
	}
	// The contraction measurements run in the synchronous substrate rather
	// than through a Workload, so they go straight onto the worker pool —
	// one job per (n, averager) so the slow runs don't serialize.
	ns := []int{4, 8, 16, 31}
	if SweepTier() >= TierFull {
		// The mean's f/(n−2f) rate keeps shrinking as n grows; track it
		// into the hundreds now that large sweeps are cheap.
		ns = append(ns, 63, 101)
	}
	averagers := []agreement.Averager{agreement.Mean, agreement.Midpoint}
	measured, err := runner.Map(0, len(ns)*len(averagers), func(i int) (float64, error) {
		return contraction(ns[i/len(averagers)], 1, averagers[i%len(averagers)])
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		paperMean := 1.0 / float64(n-2)
		t1.AddRow(fmtInt(n), FmtRatio(measured[2*i]), FmtRatio(paperMean), FmtRatio(measured[2*i+1]), "0.500")
	}
	t1.AddNote("measured rates must not exceed the paper rates (worst-case bounds)")

	t2 := &Table{
		ID:       "E09b",
		Title:    "End-to-end steady skew: mean vs midpoint (f=1, one two-faced fault)",
		PaperRef: "§7: \"an error of approximately 2ε is approachable\"",
		Columns:  []string{"n", "midpoint skew", "≤ 4ε floor", "mean skew", "≤ mean floor", "mean floor ≈2ε"},
	}
	// Two trials per n — midpoint then mean — completed into one row by the
	// ordered Each.
	type trial struct {
		n  int
		av core.Averager
	}
	bns := []int{4, 10, 16}
	if SweepTier() >= TierFull {
		bns = append(bns, 32, 48)
	}
	var points []trial
	for _, n := range bns {
		points = append(points, trial{n: n, av: core.Midpoint}, trial{n: n, av: core.Mean})
	}
	var midSkew float64
	sweep := Sweep[trial]{
		Name:   "E09b",
		Params: points,
		Build: func(p trial) (Workload, error) {
			return steadySkewWorkload(analysis.Default(p.n, 1), p.av), nil
		},
		Each: func(p trial, w Workload, res *Result) error {
			skew := res.Skew.MaxAfterWarmup()
			if p.av == core.Midpoint {
				midSkew = skew
				return nil
			}
			params := w.Cfg.Params
			midFloor := params.BetaFloor() // 4ε+4ρP
			meanFloor := 2*params.Eps + 4*params.Rho*params.P
			t2.AddRow(fmtInt(p.n), FmtDur(midSkew), Verdict(midSkew <= midFloor),
				FmtDur(skew), Verdict(skew <= meanFloor), FmtDur(meanFloor))
			return nil
		},
	}
	if err := sweep.Run(); err != nil {
		return nil, err
	}
	t2.AddNote("both averagers sit below their worst-case floors (4ε+4ρP for midpoint; ≈2ε approachable for mean)")
	t2.AddNote("under *stochastic* uniform jitter the midrange is the statistically efficient estimator, so measured midpoint skew can undercut the mean — the paper's 2ε-vs-4ε separation concerns the adaptive worst case (see EXPERIMENTS.md)")
	return []*Table{t1, t2}, nil
}

// contraction measures one round's diameter contraction in the synchronous
// substrate with the spread adversary.
func contraction(n, f int, av agreement.Averager) (float64, error) {
	adv := &agreement.SpreadAdversary{}
	cfg := agreement.Config{N: n, F: f, Averager: av, Adversary: adv}
	init := make([]float64, n)
	faulty := make([]bool, n)
	faulty[n-1] = true
	for i := 0; i < n-1; i++ {
		init[i] = float64(i) / float64(n-2)
	}
	st, err := agreement.New(cfg, init, faulty)
	if err != nil {
		return 0, fmt.Errorf("E09: %w", err)
	}
	vals := multiset.New(st.Values()...)
	adv.Observe(vals.Min(), vals.Max())
	before := st.Diameter()
	if err := st.Step(); err != nil {
		return 0, err
	}
	return st.Diameter() / before, nil
}

// steadySkewWorkload assembles the clock algorithm with the given averager
// and one two-faced fault whose messages land inside every window (the
// adversary the mean is better against: an extreme surviving value drags the
// midpoint by half the range but the mean by only 1/(n−2f) of it).
func steadySkewWorkload(params analysis.Params, av core.Averager) Workload {
	cfg := core.Config{Params: params, Averager: av}
	return Workload{
		Cfg:    cfg,
		Rounds: 16,
		Faults: map[sim.ProcID]func() sim.Process{
			sim.ProcID(params.N - 1): func() sim.Process {
				return &faults.TwoFaced{Cfg: cfg, Lead: 3e-3, Lag: 3e-3}
			},
		},
		Seed: 23,
	}
}

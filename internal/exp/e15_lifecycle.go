package exp

import (
	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "E15",
		Title:    "Full lifecycle: establish, switch, maintain",
		PaperRef: "§9.2 end: two modes of operation",
		Run:      runE15,
	})
}

// runE15 reproduces the deployment story the paper sketches at the end of
// §9.2: run the start-up algorithm until the desired closeness is achieved,
// switch to the maintenance algorithm, and keep the guarantees from then on.
// The table reports the three phases of one execution (RunLifecycle), so
// there is no sweep to parallelize.
func runE15() ([]*Table, error) {
	cfg := core.Config{Params: analysis.Default(7, 2)}
	const (
		spread        = 2.0
		switchRound   = 6
		maintRounds   = 10
		startupLength = 0.1 // generous per-round real-time estimate
	)

	srec := metrics.NewRoundRecorder(metrics.TagStartupRound, metrics.TagAdjust)
	horizon := clock.Real(switchRound*startupLength + float64(3*cfg.P) + float64(float64(maintRounds)*cfg.P))
	res, procs, err := RunLifecycle(Workload{Cfg: cfg, Seed: 42, Observers: []sim.Observer{srec}},
		spread, switchRound, 0, horizon)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:       "E15",
		Title:    "One execution: arbitrary clocks → ≈4ε → maintained within γ",
		PaperRef: "§9.2 end",
		Columns:  []string{"phase", "quantity", "measured", "paper reference"},
	}
	b0 := srec.SkewAtBegin(0)
	bLast := srec.SkewAtBegin(srec.Rounds() - 1)
	t.AddRow("establish", "initial closeness B⁰", FmtDur(b0), "arbitrary (spread 2s)")
	t.AddRow("establish", "closeness after "+fmtInt(switchRound)+" rounds", FmtDur(bLast),
		"Lemma 20 floor "+FmtDur(cfg.StartupFloor()))
	allSwitched := true
	minRound := -1
	for _, sp := range procs {
		if !sp.Switched() {
			allSwitched = false
		}
		if r := sp.MaintenanceRound(); minRound < 0 || r < minRound {
			minRound = r
		}
	}
	t.AddRow("switch", "all processes on one epoch", Verdict(allSwitched), "message-free rule (core/switch.go)")
	t.AddRow("maintain", "rounds completed", fmtInt(minRound), "-")
	// Steady skew over the final two maintenance rounds.
	steady, _ := metrics.NonfaultySkew(res.Engine, res.Now())
	t.AddRow("maintain", "final skew", FmtDur(steady), "γ = "+FmtDur(cfg.Gamma()))
	// Maintenance adjustments only: the TagAdjust stream also contains the
	// (large, legitimate) start-up corrections, so cut at the first
	// maintenance round's beginning.
	maintFrom := res.Now()
	if ts := res.Rounds.AnnotationTimes(0); len(ts) > 0 {
		maintFrom = ts[0]
	}
	t.AddRow("maintain", "max |ADJ| in maintenance", FmtDur(res.Rounds.MaxAbsAdj(maintFrom)),
		"Thm 4(a) bound "+FmtDur(cfg.AdjBound()))
	t.AddNote("the establishment phase cancels a 2-second spread in one round (the DIFF estimator is exact up to ±ε); the recurrence halving is the worst case")
	return []*Table{t}, nil
}

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
		ID:       "E06",
		Title:    "Establishing synchronization from arbitrary clocks (start-up)",
		PaperRef: "§9.2, Lemma 20",
		Run:      runE06,
	})
}

// arbitraryStart assembles the §9.2 starting point for w's substrate: clocks
// offset at random over `spread` seconds, process i woken at i·stagger, one
// mk automaton each, running to horizon under the given observers.
func (w Workload) arbitraryStart(spread, stagger float64, horizon clock.Real, mk func(corr clock.Local) sim.Process, observers ...sim.Observer) assembly {
	n := w.Cfg.N
	procs := make([]sim.Process, n)
	starts := make([]clock.Real, n)
	for i, corr := range clock.RandomOffsets(n, clock.Local(spread), w.Seed) {
		procs[i] = mk(corr)
		starts[i] = clock.Real(float64(i) * stagger)
	}
	return assembly{
		cfg:       sim.Config{Procs: procs, Clocks: clock.Clocks(w.Drift, w.Cfg.N), StartAt: starts, Delay: w.Delay, Seed: w.Seed},
		observers: append(observers, w.Observers...),
		horizon:   horizon,
		res:       &Result{},
	}
}

// RunStartup executes the §9.2 algorithm from arbitrary clocks spread over
// `spread` seconds and returns the per-round closeness Bᵢ (the nonfaulty
// skew at each round's begin annotations) plus the final skew.
func RunStartup(cfg core.Config, spread float64, horizon clock.Real, seed int64) (bSeries []float64, final float64, err error) {
	w := Workload{Cfg: cfg, Seed: seed}.withDefaults()
	rec := metrics.NewRoundRecorder(metrics.TagStartupRound, metrics.TagAdjust)
	res, err := execute(w.arbitraryStart(spread, 0.005, horizon, func(corr clock.Local) sim.Process {
		return core.NewStartupProc(cfg, corr)
	}, rec))
	if err != nil {
		return nil, 0, err
	}
	rounds := rec.Rounds()
	bSeries = make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		bSeries = append(bSeries, rec.SkewAtBegin(i))
	}
	final, _ = metrics.NonfaultySkew(res.Engine, res.Now())
	return bSeries, final, nil
}

// RunLifecycle executes the paper's full lifecycle on w's substrate (Cfg,
// Drift, Delay, Seed; sequential, fault-free): the §9.2 start-up algorithm
// from clocks spread over `spread` seconds, each process switching to §4.2
// maintenance after switchRound start-up rounds (core.SwitchProc), to the
// given horizon. Result.Skew (steady from warmup on, bucketed by
// w.SkewBucket) and Result.Rounds (the maintenance rounds) are attached,
// then w.Observers; the automata come back for the caller to ask whether and
// when each switched.
func RunLifecycle(w Workload, spread float64, switchRound int, warmup, horizon clock.Real) (*Result, []*core.SwitchProc, error) {
	w = w.withDefaults()
	procs := make([]*core.SwitchProc, 0, w.Cfg.N)
	skew := &metrics.SkewRecorder{Warmup: warmup, Bucket: w.SkewBucket}
	rrec := metrics.NewDefaultRoundRecorder()
	a := w.arbitraryStart(spread, 0.003, horizon, func(corr clock.Local) sim.Process {
		procs = append(procs, core.NewSwitchProc(w.Cfg, corr, switchRound))
		return procs[len(procs)-1]
	}, skew, rrec)
	a.res.Skew, a.res.Rounds = skew, rrec
	res, err := execute(a)
	return res, procs, err
}

// runE06 reproduces Lemma 20: Bⁱ⁺¹ ≤ Bⁱ/2 + 2ε + 2ρ(11δ+39ε), with the
// limit ≈ 4ε. A single execution (RunStartup, not a Workload sweep), so it
// stays off the worker pool.
func runE06() ([]*Table, error) {
	cfg := core.Config{Params: analysis.Default(7, 2)}
	bs, final, err := RunStartup(cfg, 2.0, 20, 42)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:       "E06",
		Title:    "Start-up closeness Bᵢ per round vs the Lemma 20 recurrence",
		PaperRef: "Lemma 20; floor ≈ 4ε",
		Columns:  []string{"round", "measured Bᵢ", "recurrence bound", "within"},
	}
	show := len(bs)
	if show > 14 {
		show = 14
	}
	prev := 0.0
	for i := 0; i < show; i++ {
		bound := "-"
		within := "-"
		if i > 0 {
			bb := cfg.StartupStep(prev)
			bound = FmtDur(bb)
			within = Verdict(bs[i] <= float64(bb*1.10)+1e-5)
		}
		t.AddRow(fmtInt(i), FmtDur(bs[i]), bound, within)
		prev = bs[i]
	}
	t.AddNote("initial clocks spread over 2s; Lemma 20 floor 4ε+4ρ(11δ+39ε) = %s; final skew = %s",
		FmtDur(cfg.StartupFloor()), FmtDur(final))
	t.AddNote("paper: \"the algorithm achieves a closeness of synchronization of about 4ε\" (4ε = %s)", FmtDur(4*cfg.Eps))
	return []*Table{t}, nil
}

// Command wlsim runs a single clock synchronization simulation with
// configurable parameters and prints the measured quantities next to the
// paper's bounds.
//
// Example:
//
//	wlsim -n 7 -f 2 -rounds 20 -rho 1e-5 -delta 10ms -eps 1ms -p 1s
//	wlsim -n 10 -f 3 -faults two-faced -adversarial
//	wlsim -n 7 -f 2 -trials 32 -workers 4   # seed sweep on a worker pool
//	wlsim -adversary-list                   # the registered strategy space
//	wlsim -n 7 -f 2 -adversary splitter     # faulty automata from the registry
//	wlsim -n 7 -f 0 -adversary skewmax      # adaptive delivery retiming (E18)
//	wlsim -n 7 -f 2 -faults silent -adversary skewmax  # both, on disjoint ids
//	wlsim -n 1009 -f 0 -shards 8 -rounds 10 # sharded time-window engine
//	wlsim -n 1009 -clusters 32 -rounds 10   # two-tier hierarchy (≈ n·c + (n/c)² traffic)
//	wlsim -n 1009 -topology two-tier -shards 8 -rounds 10  # clusters drained in parallel
//	wlsim -scenario scenarios/partition-heal.json   # run a declarative scenario
//
// -scenario runs one internal/scenario JSON file — topology, delay
// substrate, timed chaos script and assertions all come from the file (the
// other configuration flags are rejected alongside it). The report table is
// printed and the exit status reflects the scenario's assertions, so a
// scenario file doubles as an executable regression test.
//
// -faults and -adversary name the one fault vocabulary, the internal/faults
// registry. -faults takes a facade fault kind — a registry strategy at the
// facade's pull (two-faced and stale-replay pull 3ε, not the registry's
// β − ε) — on the top f ids. -adversary resolves any registered strategy —
// fixed (schedule-driven faulty automata on the top f ids) or adaptive (a
// network adversary installed on the engine's delivery pipeline, clamped
// to [δ−ε, δ+ε]). Both may be given when their ids are disjoint (a pure
// retimer such as skewmax places none); the facade rejects an id placed
// twice or more than f placed ids.
//
// With -trials > 1 the same configuration runs across that many seeds
// (derived deterministically from -seed, so results do not depend on
// -workers) and a per-trial table plus min/median/max summary is printed.
//
// wlsim is also the profiling entry point for the simulator hot path:
//
//	wlsim -n 31 -f 10 -rounds 200 -cpuprofile cpu.pprof
//	wlsim -n 31 -f 10 -rounds 200 -memprofile mem.pprof
//	go tool pprof -top cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	clocksync "repro"
	"repro/internal/exp"
	"repro/internal/exp/runner"
	"repro/internal/faults"
	"repro/internal/scenario"
)

func main() {
	var (
		n        = flag.Int("n", 7, "number of processes")
		f        = flag.Int("f", 2, "fault tolerance bound (n ≥ 3f+1)")
		rounds   = flag.Int("rounds", 20, "rounds to simulate")
		rho      = flag.Float64("rho", 1e-5, "clock drift bound ρ")
		delta    = flag.Duration("delta", 10*time.Millisecond, "median message delay δ")
		eps      = flag.Duration("eps", time.Millisecond, "delay uncertainty ε")
		beta     = flag.Duration("beta", 5500*time.Microsecond, "initial closeness β")
		p        = flag.Duration("p", time.Second, "round length P")
		k        = flag.Int("k", 1, "clock exchanges per round (§7)")
		stagger  = flag.Duration("stagger", 0, "broadcast stagger σ (§9.3)")
		mean     = flag.Bool("mean", false, "use mean instead of midpoint averaging")
		seed     = flag.Int64("seed", 1, "random seed")
		advDelay = flag.Bool("adversarial", false, "pin delays at band edges (worst case)")
		faultStr = flag.String("faults", "", "make the top f processes faulty with a facade fault kind: silent|two-faced|noise|stale-replay|crash-mid-run")
		advStrat = flag.String("adversary", "", "install a registered adversary strategy by name (fixed or adaptive; see -adversary-list)")
		advList  = flag.Bool("adversary-list", false, "list the registered adversary strategies and exit")
		scenFile = flag.String("scenario", "", "run a declarative scenario file (internal/scenario JSON) and exit")
		startup  = flag.Bool("startup", false, "run the §9.2 establishment algorithm instead")
		trace    = flag.Int("trace", 0, "print the first N actions of the execution log")
		spread   = flag.Float64("spread", 2.0, "initial clock spread in seconds (startup mode)")
		shards   = flag.Int("shards", 0, "run on the sharded time-window engine across this many shards (deterministic: results are identical for every value); 0 = auto: min(GOMAXPROCS, n / n₀, 2) for a flat mesh (n₀ and the cap from BENCH_engine.json's crossover table), one partition for two-tier and -trials; 1 is one window partition; auto and 1 fall back to the time-major engine under -trace or an adaptive -adversary")
		topology = flag.String("topology", "flat", "synchronization topology: flat (all-to-all mesh) or two-tier (clustered hierarchy)")
		clusters = flag.Int("clusters", 0, "two-tier cluster size c (implies -topology two-tier; 0 with two-tier = c ≈ √n)")
		trials   = flag.Int("trials", 1, "run this many derived-seed trials of the same configuration")
		workers  = flag.Int("workers", 0, "worker pool size for -trials (0 = GOMAXPROCS)")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprof  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	runner.SetDefaultWorkers(*workers)

	if *advList {
		listAdversaries()
		return
	}

	if *scenFile != "" {
		// The scenario file is the whole configuration; a simulation flag
		// next to it would be silently ignored, which is worse than an error.
		var extra []string
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name != "scenario" {
				extra = append(extra, "-"+fl.Name)
			}
		})
		if len(extra) > 0 {
			exitOn(fmt.Errorf("wlsim: -scenario takes its whole configuration from the file; drop %s", strings.Join(extra, ", ")))
		}
		exitOn(runScenario(*scenFile))
		return
	}

	if *cpuprof != "" || *memprof != "" {
		var f *os.File
		if *cpuprof != "" {
			var err error
			f, err = os.Create(*cpuprof)
			exitOn(err)
			exitOn(pprof.StartCPUProfile(f))
		}
		cpu, mem := *cpuprof, *memprof
		var once sync.Once
		// exitOn runs this too: os.Exit skips defers, and a truncated CPU
		// profile or a never-written heap profile from a failed run is
		// exactly when the data matters.
		flushProfiles = func() {
			once.Do(func() {
				if cpu != "" {
					pprof.StopCPUProfile()
					closeProfile(f, cpu)
				}
				if mem != "" {
					writeHeapProfile(mem)
				}
			})
		}
		defer flushProfiles()
	}

	// Only the flags the user actually set become facade options (the flag
	// defaults equal the facade defaults), so the facade can tell a
	// configured option from a default and reject it by name where an entry
	// point cannot honour it — the rejection table lives there, not here.
	set := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	var opts []clocksync.Option
	add := func(on bool, o clocksync.Option) {
		if on {
			opts = append(opts, o)
		}
	}
	add(set["rho"], clocksync.WithRho(*rho))
	add(set["delta"] || set["eps"], clocksync.WithDelay(delta.Seconds(), eps.Seconds()))
	add(set["beta"], clocksync.WithBeta(beta.Seconds()))
	add(set["p"], clocksync.WithRoundLength(p.Seconds()))
	add(set["seed"], clocksync.WithSeed(*seed))
	add(*k > 1, clocksync.WithKExchanges(*k))
	add(*stagger > 0, clocksync.WithStagger(stagger.Seconds()))
	add(*mean, clocksync.WithAveraging(clocksync.Mean))
	add(*advDelay, clocksync.WithDelayDistribution(clocksync.DelayAdversarial))
	add(*trace > 0, clocksync.WithTrace(*trace))
	add(*shards != 0, clocksync.WithShards(*shards))
	add(*advStrat != "", clocksync.WithAdversary(*advStrat))
	if *faultStr != "" {
		kind, err := clocksync.ParseFaultKind(*faultStr)
		exitOn(err)
		for i := 0; i < *f; i++ {
			opts = append(opts, clocksync.WithFault(*n-1-i, kind))
		}
	}

	switch {
	case *topology != "flat" && *topology != "two-tier":
		exitOn(fmt.Errorf("wlsim: unknown -topology %q (flat|two-tier)", *topology))
	case *topology == "two-tier" || *clusters > 0:
		// The facade rejects the options a two-tier topology cannot honour;
		// only wlsim's own run modes are rejected here.
		if *topology == "flat" && set["topology"] {
			exitOn(fmt.Errorf("wlsim: -clusters implies -topology two-tier; drop -topology flat or -clusters"))
		}
		for _, rej := range []struct{ name, why string }{
			{"startup", "the §9.2 establishment algorithm is flat-only"},
			{"spread", "the §9.2 establishment algorithm is flat-only"},
			{"trials", "the trial table's adjustment/validity columns are flat-only"},
		} {
			if set[rej.name] {
				exitOn(fmt.Errorf("wlsim: -%s is not supported with the two-tier topology (%s); drop -%s or the topology flags", rej.name, rej.why, rej.name))
			}
		}
		opts = append(opts, clocksync.WithClusters(*clusters))
		if !set["f"] {
			// An explicitly-set -f is the outer tier's representative budget
			// f_out; left at its default it is derived from the cluster count.
			*f = 0
		}
	}

	if *startup {
		if *trials > 1 {
			exitOn(fmt.Errorf("wlsim: -trials is only supported in maintenance mode, not with -startup"))
		}
		rep, err := clocksync.RunStartup(*n, *f, *spread, *rounds, opts...)
		exitOn(err)
		fmt.Print(rep)
		return
	}

	if *trials > 1 {
		if *trace > 0 {
			exitOn(fmt.Errorf("wlsim: -trace is only supported for a single run, not with -trials"))
		}
		// The trials already keep every core busy: one partition each.
		add(*shards == 0, clocksync.WithShards(1))
		exitOn(runTrials(*n, *f, *rounds, *trials, *seed, opts))
		return
	}

	c, err := clocksync.New(*n, *f, opts...)
	exitOn(err)
	rep, err := c.Run(*rounds)
	exitOn(err)
	fmt.Print(rep)
	if rep.Trace != "" {
		fmt.Println("\nexecution trace:")
		fmt.Print(rep.Trace)
	}
}

// runScenario loads, runs and renders one declarative scenario. Assertion
// failures (including unmet expected-violation markers) are reported through
// the error return, so the process exits nonzero and the file works as an
// executable regression test.
func runScenario(path string) error {
	s, err := scenario.Load(path)
	if err != nil {
		return err
	}
	rep, err := scenario.Run(s)
	if err != nil {
		return err
	}
	rep.Table().Render(os.Stdout)
	if !rep.Ok() {
		return fmt.Errorf("wlsim: scenario %s failed %d assertion(s)", s.Name, len(rep.Failures))
	}
	return nil
}

// runTrials fans `trials` runs of the same configuration out across the
// worker pool, each with a seed derived from (base, trial) so the sweep is
// reproducible regardless of worker count, and prints per-trial rows plus a
// min/median/max summary of the steady skew.
func runTrials(n, f, rounds, trials int, base int64, opts []clocksync.Option) error {
	// Derive all seeds up front: the table's seed column must show the
	// exact value each trial ran with.
	seeds := make([]int64, trials)
	for i := range seeds {
		seeds[i] = runner.DeriveSeed(base, i)
	}
	reps, err := runner.Map(0, trials, func(i int) (*clocksync.Report, error) {
		trialOpts := append(append([]clocksync.Option{}, opts...),
			clocksync.WithSeed(seeds[i]))
		c, err := clocksync.New(n, f, trialOpts...)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		rep, err := c.Run(rounds)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		return rep, nil
	})
	if err != nil {
		return err
	}

	t := &exp.Table{
		ID:       "TRIALS",
		Title:    fmt.Sprintf("%d derived-seed trials (n=%d, f=%d, %d rounds)", trials, n, f, rounds),
		PaperRef: "Theorem 16",
		Columns:  []string{"trial", "seed", "steady skew", "max skew", "max |ADJ|", "agreement", "validity"},
	}
	steady := make([]float64, 0, trials)
	worstSkew, gamma := 0.0, 0.0
	for i, rep := range reps {
		steady = append(steady, rep.SteadySkew)
		if rep.MaxSkew > worstSkew {
			worstSkew = rep.MaxSkew
		}
		gamma = rep.Gamma
		t.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%d", seeds[i]),
			exp.FmtDur(rep.SteadySkew), exp.FmtDur(rep.MaxSkew), exp.FmtDur(rep.MaxAdjustment),
			exp.Verdict(rep.AgreementHolds()), exp.Verdict(rep.ValidityHolds()))
	}
	sort.Float64s(steady)
	t.AddNote("steady skew min %s / median %s / max %s; worst max skew %s vs γ %s",
		exp.FmtDur(steady[0]), exp.FmtDur(median(steady)), exp.FmtDur(steady[len(steady)-1]),
		exp.FmtDur(worstSkew), exp.FmtDur(gamma))
	t.Render(os.Stdout)
	return nil
}

// median of a sorted non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// listAdversaries prints the registered strategy space — the same registry
// cmd/experiments' E17/E18 sweep — one row per strategy with its kind.
// Any name listed here can be driven interactively with -adversary.
func listAdversaries() {
	for _, s := range faults.Strategies() {
		kind := "fixed"
		if s.Adaptive() {
			kind = "adaptive"
			if !s.WantsMembers {
				kind = "adaptive (no faulty members)"
			}
		}
		fmt.Printf("%-15s %-30s %s\n", s.Name, kind, s.Desc)
	}
}

// flushProfiles stops and writes any active profiles; set in main when
// profiling flags are given, called both on normal return and by exitOn.
var flushProfiles = func() {}

// writeHeapProfile records the live-heap profile after a final GC, the
// useful view for hunting event-loop allocations. Best-effort: it runs on
// error paths too and must not re-enter exitOn.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlsim: memprofile:", err)
		return
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "wlsim: memprofile:", err)
	}
	closeProfile(f, path)
}

func closeProfile(f *os.File, path string) {
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "wlsim: %s: %v\n", path, err)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flushProfiles()
		os.Exit(1)
	}
}

// Command benchjson runs the standing engine benchmarks (internal/bench,
// the same code behind `go test -bench=EngineThroughput` and
// `-bench=LargeN`) and writes the results as JSON, so the hot path's
// performance trajectory is tracked across PRs in BENCH_engine.json instead
// of volatile CI logs.
//
// Usage:
//
//	benchjson                               # writes BENCH_engine.json
//	benchjson -o - | jq .                   # print to stdout
//	benchjson -against BENCH_engine.json    # also fail on a >20% events/sec
//	                                        # regression vs the committed file
//	benchjson -crossover                    # re-measure the shard-count
//	                                        # crossover table only (≈ 1 min)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// result is one benchmark measurement. EventsPerSec is the headline number
// for the event engine; AllocsPerOp in the steady benchmark is the
// zero-allocation regression signal (one op = one delivered event there).
type result struct {
	Name         string  `json:"name"`
	Ops          int     `json:"ops"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	EventsPerOp  float64 `json:"events_per_op,omitempty"`
	// PeakQueueEvents is the event queue's population high-water mark — every
	// pending copy (≈ n²; bytes_per_op carries what a copy costs), deterministic per benchmark and tracked like the time
	// metrics.
	PeakQueueEvents float64 `json:"peak_queue_events,omitempty"`
	// MsgsPerRound (LargeN benchmarks) is the per-round message traffic —
	// ≈ n² for the flat mesh, ≈ n·c + (n/c)² for the two-tier hierarchy.
	// Deterministic per configuration and compared raw by the gate: growth
	// means a topology or automaton change re-inflated round traffic.
	MsgsPerRound float64 `json:"msgs_per_round,omitempty"`
}

type report struct {
	Note       string   `json:"note"`
	Benchmarks []result `json:"benchmarks"`
	// Crossover is the shard-count table exp.AutoShards is read from:
	// measured under -crossover, otherwise carried over from -o.
	Crossover *bench.Crossover `json:"crossover,omitempty"`
}

// defaultBenchtime restores testing's stock benchtime after a forced-
// iteration rerun (see measure).
const defaultBenchtime = "1s"

func main() {
	// Register the testing package's flags (benchtime in particular) so
	// measure can raise the iteration floor for slow benchmarks.
	testing.Init()
	out := flag.String("o", "BENCH_engine.json", "output path (\"-\" for stdout)")
	against := flag.String("against", "", "compare events/sec against this committed report and exit nonzero on regression")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional events/sec drop before -against fails")
	count := flag.Int("count", 3, "runs per benchmark; the fastest is reported (noise suppression on shared machines)")
	crossover := flag.Bool("crossover", false, "measure the shard-count crossover (n × k, interleaved) that exp.AutoShards is read from instead of the benchmarks, which are kept from -o; without it the table in -o is kept")
	rev := flag.String("rev", "", "revision stamped on the crossover table (default: the build's VCS revision)")
	flag.Parse()
	if *count < 1 {
		fatal(fmt.Errorf("-count must be ≥ 1, got %d (zero runs would overwrite %s with empty measurements)", *count, *out))
	}

	benchmarks := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"EngineThroughput/steady", bench.EngineSteady},
		// The same beacons on one window partition, what a plain run takes,
		// and on two, whose Run crew parks between windows.
		{"EngineThroughput/steady-k=1", bench.EngineSteadyShards(1)},
		{"EngineThroughput/steady-k=2", bench.EngineSteadyShards(2)},
		{"EngineThroughput/workload", bench.EngineWorkload},
		// The send path's adversary retiming under load: a regression here
		// means a change slowed the retime/hook path.
		{"EngineThroughput/adversary", bench.EngineAdversary},
		// The large-n broadcast regime on the engine a plain run takes: one
		// window partition (what internal/exp runs Shards = 0 as).
		{"LargeN/n=31", bench.LargeN(31)},
		{"LargeN/n=101", bench.LargeN(101)},
		// The "n in the thousands" tier the sharded work exists for; the
		// nightly gate watches these entries like any other.
		{"LargeN/n=1009", bench.LargeN(1009)},
		{"LargeN/n=1009-sharded-k=8", bench.LargeNSharded(1009, 8)},
		// The two-tier hierarchy on the same 10 rounds: msgs_per_round is
		// the O(n²) → O(n·c + (n/c)²) traffic drop, and wall-clock per op
		// must stay ≤ 1/3 of the flat n=1009 entry's.
		{"LargeN/n=1009-hier", bench.LargeNHier(1009, 32)},
	}

	rep := report{
		Note: "events/sec is simulator event throughput; in steady, one op = one delivered event and allocs_per_op must stay ~0 (no-observer steady state) — steady on the time-major heap, steady-k=1 on one window partition, steady-k=2 on two, whose Run crew parks between windows (0 allocs per event, TestShardedSteadyAllocs); LargeN is 10 maintenance rounds of an n-process broadcast mesh; LargeN and -hier run on one window partition, the engine a plain run takes; peak_queue_events is the largest partition's high-water mark of pending events (every pending copy, ≈ n²/k; a broadcast's copies share one 80-byte header holding its sender's delay-stream state, from which readers redraw their delivery times, or 8 B a copy in a stored row, a copy of the times, for a delay model that does not declare its draws); -sharded-k runs the mesh across k time-window shards, drained by a crew of workers started once per Run, every fan-out one row — its allocs_per_op may exceed the one-partition entry's by at most 32 per partition (TestShardedSteadyAllocs); -hier runs the same rounds on the two-tier hierarchy (clusters of 32) and must stay at ≤ 1/3 the flat n=1009 wall-clock per op; msgs_per_round is the deterministic per-round traffic (≈ n² flat, ≈ n·c + (n/c)² two-tier), gated raw like the sharded allocs; entries too slow to iterate under the 1s benchtime are rerun at 3 forced iterations and report the median run; measured events/sec depends on the host's core count (a single-core machine cannot show the parallel speedup); crossover is the shard-count table exp.AutoShards is read from (cmd/benchjson -crossover): per n and k, the quartiles of a 20-round flat exp.Run's wall time over interleaved repetitions, and the winner among the k ≤ gomaxprocs Auto may pick",
	}
	// The benchmarks and the crossover table are measured apart — the table
	// alone takes about a minute — and the part not measured is carried over
	// from -o.
	var prev report
	if raw, err := os.ReadFile(*out); err == nil && *out != "-" {
		if err := json.Unmarshal(raw, &prev); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *out, err))
		}
	}
	if *crossover {
		c, err := measureCrossover(*rev)
		if err != nil {
			fatal(err)
		}
		rep.Benchmarks, rep.Crossover = prev.Benchmarks, c
	} else {
		for _, bm := range benchmarks {
			rep.Benchmarks = append(rep.Benchmarks, measure(bm.name, bm.fn, *count))
		}
		rep.Crossover = prev.Crossover
	}

	// Load the baseline before writing anything: -o (default
	// BENCH_engine.json) and -against may name the same file, and reading
	// after the write would compare the fresh run against itself — a gate
	// that always passes.
	var baseline *report
	if *against != "" {
		raw, err := os.ReadFile(*against)
		if err != nil {
			fatal(err)
		}
		baseline = &report{}
		if err := json.Unmarshal(raw, baseline); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *against, err))
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if baseline != nil {
		if err := checkRegression(rep, *baseline, *tolerance); err != nil {
			fatal(err)
		}
		// Status goes to stderr: with -o - the stdout stream is the JSON
		// report (the documented `| jq .` pattern) and must stay parseable.
		fmt.Fprintf(os.Stderr, "no regression beyond %.0f%% vs %s (events/sec machine-normalized; sharded allocs_per_op raw)\n", *tolerance*100, *against)
	}
}

// measure runs one benchmark count times and picks the entry to report.
//
// Fast benchmarks take the best of the count runs: shared/virtualized
// machines steal CPU in bursts, and the fastest run is the least-disturbed
// measurement of the code itself.
//
// Benchmarks too slow for the default 1s benchtime to iterate (Ops == 1 on
// every run — the n=1009 tier takes seconds per op) would make every
// committed number a single sample of a single iteration. Those rerun with
// a forced 3-iteration benchtime and report the median run by events/sec,
// so every gated number aggregates at least three iterations.
func measure(name string, fn func(*testing.B), count int) result {
	run := func() result {
		r := testing.Benchmark(fn)
		return result{
			Name:            name,
			Ops:             r.N,
			NsPerOp:         float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:     float64(r.MemAllocs) / float64(r.N),
			BytesPerOp:      float64(r.MemBytes) / float64(r.N),
			EventsPerSec:    r.Extra["events/sec"],
			EventsPerOp:     r.Extra["events/op"],
			PeakQueueEvents: r.Extra["peak-queue-events"],
			MsgsPerRound:    r.Extra["msgs-per-round"],
		}
	}
	var best result
	for i := 0; i < count; i++ {
		if cur := run(); i == 0 || cur.EventsPerSec > best.EventsPerSec {
			best = cur
		}
	}
	if best.Ops >= 3 {
		return best
	}
	if err := flag.Set("test.benchtime", "3x"); err != nil {
		return best // testing flags unavailable; keep the probe result
	}
	defer flag.Set("test.benchtime", defaultBenchtime)
	runs := make([]result, count)
	for i := range runs {
		runs[i] = run()
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].EventsPerSec < runs[j].EventsPerSec })
	return runs[len(runs)/2]
}

// The crossover grid: every n the table records, every k measured at it.
var (
	crossoverNs = []int{7, 13, 22, 31, 61, 101, 251, 1009}
	crossoverKs = []int{1, 2, 4, 8}
)

// crossoverBudget is roughly the wall time spent measuring one n.
const crossoverBudget = 4 * time.Second

// measureCrossover times bench.CrossoverOp over the grid. At each n one
// unmeasured op per k warms up and sizes the repetitions (5 to 31 of them,
// within crossoverBudget); then each repetition times one op at every k,
// starting at a different k each time, so that drift of the host's load
// falls on every k alike.
func measureCrossover(rev string) (*bench.Crossover, error) {
	c := &bench.Crossover{Host: host(), GOMAXPROCS: runtime.GOMAXPROCS(0), Revision: revision(rev), Rounds: bench.CrossoverRounds}
	for _, n := range crossoverNs {
		ks := slices.DeleteFunc(slices.Clone(crossoverKs), func(k int) bool { return k > n })
		var sweep time.Duration
		for _, k := range ks {
			d, err := timeOp(n, k)
			if err != nil {
				return nil, err
			}
			sweep += d
		}
		reps := min(31, max(5, int(crossoverBudget/max(sweep, 1))))
		ms := make([][]float64, len(ks))
		for r := range reps {
			for j := range ks {
				i := (r + j) % len(ks)
				d, err := timeOp(n, ks[i])
				if err != nil {
					return nil, err
				}
				ms[i] = append(ms[i], float64(d.Nanoseconds())/1e6)
			}
		}
		for i, k := range ks {
			sort.Float64s(ms[i])
			q := func(f float64) float64 { return ms[i][int(float64(f*float64(len(ms[i])-1))+0.5)] }
			c.Rows = append(c.Rows, bench.CrossoverCell{N: n, K: k, Ops: len(ms[i]), Q1Ms: q(0.25), P50Ms: q(0.5), Q3Ms: q(0.75)})
		}
		w := c.Winner(n)
		for i := range c.Rows {
			c.Rows[i].Winner = c.Rows[i].Winner || c.Rows[i].N == n && c.Rows[i].K == w
		}
		fmt.Fprintf(os.Stderr, "crossover n=%d: winner k=%d\n", n, w)
	}
	return c, nil
}

// timeOp returns the wall time of one crossover op.
func timeOp(n, k int) (time.Duration, error) {
	start := time.Now()
	if err := bench.CrossoverOp(n, k); err != nil {
		return 0, fmt.Errorf("crossover n=%d k=%d: %w", n, k, err)
	}
	return time.Since(start), nil
}

// host names the machine: its CPU model, when the OS tells, and its cores.
func host() string {
	model := runtime.GOARCH
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("%s, %d CPUs, %s", model, runtime.NumCPU(), runtime.Version())
}

// revision returns rev, or else the VCS revision the binary was built from.
func revision(rev string) string {
	if rev != "" {
		return rev
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// checkRegression compares the fresh measurements against a committed
// report: any benchmark present in both whose events/sec dropped by more
// than the tolerance fails the run (the nightly workflow's perf gate).
//
// Raw events/sec is not comparable across machines — a nightly runner is a
// different (and noisier) CPU than whatever produced the committed file, so
// a naive absolute gate flaps on uniform slowdowns that have nothing to do
// with the code. The gate therefore normalizes by the median fresh/committed
// ratio over all shared benchmarks: a machine running uniformly at 70% of
// the committed machine's speed moves every ratio — and the median — to
// ~0.7 and passes, while a single benchmark collapsing drags its own ratio
// far below the (unmoved) median and fails.
//
// Known blind spot, accepted deliberately: a code change that slows every
// benchmark by the same factor is indistinguishable from a slower machine
// and passes the relative check — catching it without per-machine
// calibration is not possible from one file of committed numbers. Two
// backstops bound the damage: an absolute floor (catastrophicFloor) fails
// the run outright when the normalized picture says the "machine" lost
// most of its speed, and the committed file itself is refreshed per PR on
// the development machine, where a uniform regression shows up as a diff
// of every events/sec entry. Benchmarks only present on one side are
// ignored, so adding a benchmark does not break the gate until its numbers
// are committed.
//
// Sharded (-sharded-k) entries carry one further gated metric,
// allocs_per_op, which is deterministic for a fixed workload and seed and
// therefore compared raw — no machine factor, no blind spot: growing it by
// more than the tolerance fails the run on any hardware.
func checkRegression(fresh, committed report, tolerance float64) error {
	// Below this median fresh/committed ratio the run fails even though
	// the slowdown is uniform: it is either severely degraded hardware or
	// an across-the-board code regression, and both deserve eyes.
	const catastrophicFloor = 0.35
	old := make(map[string]float64, len(committed.Benchmarks))
	for _, b := range committed.Benchmarks {
		old[b.Name] = b.EventsPerSec
	}
	type pair struct {
		name      string
		was, now  float64
		speedFrac float64 // now/was before normalization
	}
	var pairs []pair
	for _, b := range fresh.Benchmarks {
		was, ok := old[b.Name]
		if !ok || was <= 0 || b.EventsPerSec <= 0 {
			continue
		}
		pairs = append(pairs, pair{name: b.Name, was: was, now: b.EventsPerSec, speedFrac: b.EventsPerSec / was})
	}
	if len(pairs) == 0 {
		return fmt.Errorf("no comparable events/sec benchmarks between the fresh run and the baseline report")
	}
	fracs := make([]float64, len(pairs))
	for i, p := range pairs {
		fracs[i] = p.speedFrac
	}
	sort.Float64s(fracs)
	machine := fracs[len(fracs)/2] // median machine-speed factor
	if machine < catastrophicFloor {
		return fmt.Errorf("median events/sec is %.2fx the committed baseline (floor %.2fx): either this machine is far slower than the one that produced the baseline, or the change regressed everything uniformly — investigate before trusting the relative gate", machine, catastrophicFloor)
	}
	var regressions []string
	for _, p := range pairs {
		if p.speedFrac < machine*(1-tolerance) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.3gM events/sec, was %.3gM (%.2fx vs machine factor %.2fx)",
					p.name, p.now/1e6, p.was/1e6, p.speedFrac, machine))
		}
	}
	// Sharded entries additionally gate on allocs_per_op, a deterministic
	// property of the code (a fixed workload at a fixed seed allocates
	// identically on every machine), so unlike events/sec it compares raw:
	// any increase beyond the tolerance is a code regression — a leak on the
	// pooled exchange path — regardless of what hardware ran the check.
	committedByName := make(map[string]result, len(committed.Benchmarks))
	for _, b := range committed.Benchmarks {
		committedByName[b.Name] = b
	}
	for _, b := range fresh.Benchmarks {
		was, ok := committedByName[b.Name]
		if !ok {
			continue
		}
		// msgs_per_round is deterministic for every topology that reports
		// it (flat mesh, sharded, two-tier): growth beyond the tolerance
		// means round traffic re-inflated — e.g. the hierarchy's O(n·c +
		// (n/c)²) advantage eroding back toward O(n²).
		if was.MsgsPerRound > 0 && b.MsgsPerRound > was.MsgsPerRound*(1+tolerance) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f msgs/round, was %.0f (deterministic metric, compared raw — round traffic re-inflated)",
					b.Name, b.MsgsPerRound, was.MsgsPerRound))
		}
		if !strings.Contains(b.Name, "-sharded-") {
			continue
		}
		if was.AllocsPerOp > 0 && b.AllocsPerOp > was.AllocsPerOp*(1+tolerance) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f allocs/op, was %.0f (deterministic metric, compared raw)",
					b.Name, b.AllocsPerOp, was.AllocsPerOp))
		}
	}
	if len(regressions) > 0 {
		out := ""
		for i, l := range regressions {
			if i > 0 {
				out += "\n  "
			}
			out += l
		}
		return fmt.Errorf("benchmark regressions beyond %.0f%% (events/sec normalized for machine speed %.2fx; sharded allocs compared raw):\n  %s",
			tolerance*100, machine, out)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

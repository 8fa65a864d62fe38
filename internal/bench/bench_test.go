package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/exp"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// steadyAllocGate runs the shared allocation gate against one steady-state
// engine, time-major (shards 0) or windowed: after warm-up, measured Run
// slices must stay allocation-free.
func steadyAllocGate(t *testing.T, n, shards int) {
	t.Helper()
	eng, err := NewSteadyEngine(n, 1, shards)
	if err != nil {
		t.Fatal(err)
	}
	allocGate(t, eng)
}

// allocGate measures Run slices of a warmed-up eng: at most 2 allocations a
// slice of thousands of events on the time-major engine, none at all on a
// windowed one, whose partitions drain on Run's goroutine at k = 1.
func allocGate(t *testing.T, eng *sim.Engine) {
	t.Helper()
	const perSlice = 5000
	horizon, err := Advance(eng, 0, 2000) // warm the queue and free list
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Steps()
	allocs := testing.AllocsPerRun(5, func() {
		// Every slice runs: at n = 40 one Run chunk overshoots a slice many
		// times over, so a target counted from the start would leave the
		// measured slices nothing to do.
		var aerr error
		horizon, aerr = Advance(eng, horizon, eng.Steps()+perSlice)
		if aerr != nil {
			panic(aerr)
		}
	})
	delivered := (eng.Steps() - before) / 6 // AllocsPerRun runs one warm-up + 5 measured
	limit := 2.0
	if eng.Windows() > 0 {
		limit = 0
	}
	if allocs > limit {
		t.Errorf("steady state allocated %v times per Run slice (~%d events); want ≤ %v", allocs, delivered, limit)
	}
	if delivered < perSlice {
		t.Fatalf("gate workload delivered only ~%d events per slice; not a meaningful measurement", delivered)
	}
}

// TestEngineSteadyStateAllocs is the allocation regression gate (wired into
// CI) of the time-major engine: after warm-up, the no-observer event loop
// must run allocation-free — headers are recycled through their free stack,
// the heap is pre-sized for a round's n² copies, the Context is reused,
// delay sampling is inline, and observer fan-outs are empty. At n = 7 it
// measures the engine configuration BenchmarkEngineThroughput/steady
// reports, via the same NewSteadyEngine/Advance harness; at n = 40 every
// fan-out files a shared header and one heap entry per copy, hundreds in
// flight. Each measured Run slice delivers thousands of events; even ≤ 2
// allocations per slice is effectively zero per event.
func TestEngineSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{7, 40} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { steadyAllocGate(t, n, 0) })
	}
}

// TestWindowSteadyStateAllocs is the gate at k = 1, what a default run takes
// when it composes with the window: the n = 7 and n = 40 beacons of
// TestEngineSteadyStateAllocs, drained in lookahead windows on Run's
// goroutine, allocate nothing at all — no worker set, no job closure, rows
// and buffers reused from window to window.
func TestWindowSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{7, 40} {
		steadyAllocGate(t, n, 1)
	}
}

// TestShardedSteadyAllocs is the sharded allocation budget gate: the steady
// beacons at k = 2 (EngineSteadyShards) at no allocation per event, and the
// same n=1009 workload benchjson tracks, run on one window partition
// (LargeN) and across 8 shards, with the sharded run allowed at most
// shardWarmup allocations per partition more than the one partition.
// The sharded engine's extra allocations are per-partition warm-up (the
// board, timer heaps and tile buffers, the crew); in steady state every
// fan-out is a drawn row, an 80-byte header in slices the cut reuses, so an
// allocation on the row path — a stored row, say — multiplies per round and
// blows the budget immediately (an engine that allocated every row sat at
// ~14× sequential). The budget is a difference, not a ratio: the system's
// clocks and automata come from one slab per kind, so the one partition's
// run allocates tens of objects, not thousands.
func TestShardedSteadyAllocs(t *testing.T) {
	// The crew's gate: the steady beacons over two partitions, whose workers
	// are started once per Run and parked between its windows, allocate
	// nothing per delivered event.
	if got := testing.Benchmark(EngineSteadyShards(2)).AllocsPerOp(); got != 0 {
		t.Errorf("steady k=2 allocated %d times per event; want 0", got)
	}
	if testing.Short() {
		t.Skip("runs the n=1009 benchmark pair (~10s)")
	}
	one := testing.Benchmark(LargeN(1009))
	sh := testing.Benchmark(LargeNSharded(1009, 8))
	oneAllocs, shAllocs := one.AllocsPerOp(), sh.AllocsPerOp()
	if oneAllocs <= 0 {
		t.Fatalf("one-partition n=1009 reported %d allocs/op; the gate has no baseline", oneAllocs)
	}
	if budget := oneAllocs + 8*shardWarmup; shAllocs > budget {
		t.Errorf("sharded n=1009 k=8 allocated %d/op, over the budget of the one partition's %d/op + 8×%d — the pooled cross-shard exchange is leaking", shAllocs, oneAllocs, shardWarmup)
	}
}

// shardWarmup is what TestShardedSteadyAllocs lets a partition's warm-up
// allocate: the k = 8 run measured 16 a partition more than the one
// partition's on 2 cores and 18 at GOMAXPROCS = 8 (the crew grows with the
// cores).
const shardWarmup = 32

// TestShardedWindowAllocs is the per-window allocation gate: a warmed-up
// k = 4 windowed run of n = 64 beacons may allocate at most 0.1 times per
// window. Run starts its crew once — the crew, its result slice and about
// two allocations per worker goroutine it starts: about 2k per Run, about
// 0.05 per window here — and a window costs nothing: the workers park
// between windows, a fan-out is a drawn row's header in the board's reused
// slices, the due STARTs and TIMERs fill one buffer reused from its
// start, and the clock table is reloaded in place. A worker set started per
// window, or a buffer dropped instead of reused, fails it.
func TestShardedWindowAllocs(t *testing.T) {
	const k, perWindow = 4, 0.1
	eng, err := NewSteadyEngine(64, 1, k)
	if err != nil {
		t.Fatal(err)
	}
	horizon, err := Advance(eng, 0, 50_000) // warm the rows, heaps and worker goroutines
	if err != nil {
		t.Fatal(err)
	}
	windows := eng.Windows()
	allocs := testing.AllocsPerRun(5, func() {
		var aerr error
		if horizon, aerr = Advance(eng, horizon, eng.Steps()+50_000); aerr != nil {
			panic(aerr)
		}
	})
	perSlice := float64(eng.Windows()-windows) / 6 // one warm-up run + 5 measured
	if perSlice < 100 {
		t.Fatalf("only %.0f windows per measured slice; not a meaningful measurement", perSlice)
	}
	if got := allocs / perSlice; got > perWindow {
		t.Errorf("k=%d: %.2f allocations per window (%v per slice of %.0f windows); want ≤ %v", k, got, allocs, perSlice, perWindow)
	}
}

// TestEngineSampledSteadyStateAllocs is the same gate with the sampling path
// on: n = 40 correction-holding processes under the spread readers the
// harness attaches with the invariant suite (the Theorem 16 checker sampling
// through the skew recorder, the validity recorder), sampled before and
// after every correction change. The clock table is
// allocated once, at the first Run — inside the warm-up — and refreshed in
// place from then on, so the measured slices allocate nothing; at k = 1 the
// window log and its merge at the cut reuse their buffers too.
func TestEngineSampledSteadyStateAllocs(t *testing.T) {
	for _, shards := range []int{0, 1} { // time-major, and one window partition
		eng, err := newSampledSteadyEngine(40, 1, shards)
		if err != nil {
			t.Fatal(err)
		}
		skew := &metrics.SkewRecorder{}
		agree := invariant.NewAgreement(math.Inf(1), skew)
		eng.Observe(&metrics.ValidityRecorder{Alpha1: 1, Alpha2: 1})
		eng.Observe(agree)
		allocGate(t, eng)
		if skew.Max() <= 0 || agree.Checked() == 0 {
			t.Fatalf("shards %d: samplers saw nothing: max skew %v, %d agreement checks", shards, skew.Max(), agree.Checked())
		}
	}
}

// TestAutoShardsMatchesCrossover holds exp.AutoShards to the crossover table
// committed in BENCH_engine.json: at every n the table records, Auto on the
// table's host picks the k that won there (Crossover.Winner), and on a host
// of any width it picks no k larger than the largest the table shows
// winning, and that one where the table's largest n would have it. A table
// re-measured on other hardware, an n₀ edited by hand, or a cap widened
// past what was measured fails here.
func TestAutoShardsMatchesCrossover(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct{ Crossover *Crossover }
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	c := rep.Crossover
	if c == nil || len(c.Rows) == 0 {
		t.Fatal("BENCH_engine.json records no crossover table (cmd/benchjson -crossover)")
	}
	seen := map[int]bool{}
	for _, r := range c.Rows {
		if seen[r.N] {
			continue
		}
		seen[r.N] = true
		if got, want := exp.AutoShards(r.N, c.GOMAXPROCS), c.Winner(r.N); got != want {
			t.Errorf("n=%d on %d cores: Auto picks k=%d, the table's winner is k=%d", r.N, c.GOMAXPROCS, got, want)
		}
	}
	maxN, maxK := 0, 0
	for n := range seen {
		maxN, maxK = max(maxN, n), max(maxK, c.Winner(n))
	}
	for n := range seen {
		for _, procs := range []int{c.GOMAXPROCS, 4, 8, 32, 256} {
			if got := exp.AutoShards(n, procs); got > maxK {
				t.Errorf("n=%d on %d cores: Auto picks k=%d, but no k above %d won in the table (measured on %d cores)", n, procs, got, maxK, c.GOMAXPROCS)
			}
		}
	}
	if got := exp.AutoShards(maxN, 256); got != maxK {
		t.Errorf("n=%d on 256 cores: Auto picks k=%d, want the table's largest winner k=%d", maxN, got, maxK)
	}
}

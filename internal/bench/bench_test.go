package bench

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// steadyAllocGate runs the shared allocation gate against one steady-state
// engine, time-major (shards 0) or windowed: after warm-up, measured Run
// slices must stay allocation-free.
func steadyAllocGate(t *testing.T, n, shards int) {
	t.Helper()
	eng, err := newSteadyEngine(n, 1, shards, func(int) sim.Process { return &beacon{period: 1e-3} })
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

// TestShardedSteadyAllocs is the sharded allocation budget gate: the same
// n=1009 workload benchjson tracks, run on one window partition (LargeN) and
// across 8 shards, with the sharded run's allocs/op capped at 4× the one
// partition's.
// The sharded engine's extra allocations are per-partition warm-up (the
// first round's row slabs, timer heaps and tile buffers); in steady state the
// cut recycles a delivered fan-out's row onto its size class's free list, so
// a leak on the row path — a row dropped instead of reused — multiplies
// per-round and blows the budget immediately (the pre-pool engine sat at
// ~14× sequential).
func TestShardedSteadyAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the n=1009 benchmark pair (~10s)")
	}
	one := testing.Benchmark(LargeN(1009))
	sh := testing.Benchmark(LargeNSharded(1009, 8))
	oneAllocs, shAllocs := one.AllocsPerOp(), sh.AllocsPerOp()
	if oneAllocs <= 0 {
		t.Fatalf("one-partition n=1009 reported %d allocs/op; the gate has no baseline", oneAllocs)
	}
	if shAllocs > 4*oneAllocs {
		t.Errorf("sharded n=1009 k=8 allocated %d/op, over the budget of 4× the one partition's %d/op — the pooled cross-shard exchange is leaking", shAllocs, oneAllocs)
	}
}

// TestShardedWindowAllocs is the per-window allocation gate: a warmed-up
// k = 4 windowed run of n = 64 beacons may allocate at most 9 times per
// window, what its runner.Map worker set costs (the job closure, the error
// slice, the pool's shared counters and one closure per worker goroutine).
// The engine's own share is zero — rows come off their size class's free
// list and go back at the cut, the due STARTs and TIMERs fill one buffer
// reused from its start, and the clock table is reloaded in place — so a
// second worker set per window, or a buffer dropped instead of reused, fails
// it.
func TestShardedWindowAllocs(t *testing.T) {
	const k, perWindow = 4, 9
	eng, err := newSteadyEngine(64, 1, k, func(int) sim.Process { return &beacon{period: 1e-3} })
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
		t.Errorf("k=%d: %.2f allocations per window (%v per slice of %.0f windows); want ≤ %d", k, got, allocs, perSlice, perWindow)
	}
}

// TestEngineSampledSteadyStateAllocs is the same gate with the sampling path
// on: n = 40 correction-holding processes under the three spread readers the
// harness attaches (skew recorder, validity recorder, Theorem 16 checker),
// sampled before and after every correction change. The clock table is
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
		agree := invariant.NewAgreement(math.Inf(1), 0)
		eng.Observe(skew)
		eng.Observe(&metrics.ValidityRecorder{Alpha1: 1, Alpha2: 1})
		eng.Observe(agree)
		allocGate(t, eng)
		if skew.Max() <= 0 || agree.Checked() == 0 {
			t.Fatalf("shards %d: samplers saw nothing: max skew %v, %d agreement checks", shards, skew.Max(), agree.Checked())
		}
	}
}

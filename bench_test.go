// Benchmarks: one sub-benchmark per reproduced table/figure
// (BenchmarkExperiment/E01…; `go run ./cmd/experiments -list` prints the
// index with each claim's paper reference), plus micro-benchmarks of the
// substrates. The experiment benches execute the same workloads as
// cmd/experiments, so `go test -bench=. -benchmem` regenerates every
// reproduced result and reports its simulation cost.
package clocksync_test

import (
	"flag"
	"math/rand"
	"testing"

	clocksync "repro"
	"repro/internal/agreement"
	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/exp/runner"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// -workers sizes the sweep runner's worker pool for the experiment
// benchmarks: `go test -bench=Experiment -workers=1` measures the serial
// baseline, the default (GOMAXPROCS) measures the parallel speedup.
var workersFlag = flag.Int("workers", 0, "sweep worker pool size for experiment benchmarks (0 = GOMAXPROCS)")

// BenchmarkExperiment runs every registered experiment once per iteration,
// one sub-benchmark per id (-bench=Experiment/E05 selects one), on a worker
// pool of -workers goroutines.
func BenchmarkExperiment(b *testing.B) {
	runner.SetDefaultWorkers(*workersFlag)
	defer runner.SetDefaultWorkers(0)
	for _, e := range exp.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaintenanceRound measures the end-to-end simulation cost per
// synchronization round at several system sizes.
func BenchmarkMaintenanceRound(b *testing.B) {
	for _, nf := range []struct{ n, f int }{{4, 1}, {7, 2}, {13, 4}, {31, 10}} {
		b.Run(benchName(nf.n, nf.f), func(b *testing.B) {
			cfg := core.Config{Params: analysis.Default(nf.n, nf.f)}
			rounds := 10
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: rounds, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds.Rounds() < rounds {
					b.Fatalf("only %d rounds", res.Rounds.Rounds())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
		})
	}
}

func benchName(n, f int) string {
	return "n=" + itoa(n) + "/f=" + itoa(f)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkPublicAPI measures a complete Run through the facade.
func BenchmarkPublicAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := clocksync.New(7, 2, clocksync.WithSeed(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultTolerantMidpoint measures the averaging function itself.
func BenchmarkFaultTolerantMidpoint(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 31)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multiset.FaultTolerantMidpoint(multiset.New(vals...), 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistX measures the x-distance matcher on mid-sized multisets.
func BenchmarkDistX(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	u := make([]float64, 64)
	v := make([]float64, 64)
	for i := range u {
		u[i] = rng.Float64()
		v[i] = rng.Float64()
	}
	mu, mv := multiset.New(u...), multiset.New(v...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multiset.DistX(mu, mv, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClockInverse measures piecewise-linear clock inversion, the hot
// operation of timer scheduling.
func BenchmarkClockInverse(b *testing.B) {
	sched := clock.RandomWalkDrift{RhoBound: 1e-4, SegmentDur: 1, Horizon: 3600, Seed: 3}
	c := sched.Build(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Inv(clock.Local(float64(i%3600) + 0.5))
	}
}

// BenchmarkEngineThroughput measures raw event-processing speed through the
// full queue/clock/delay stack, in two regimes (shared with cmd/benchjson,
// which writes the same measurements to BENCH_engine.json):
//
//   - steady: the no-observer steady state, one op per delivered event —
//     allocs/op here is the engine's own allocation rate and must stay at
//     (effectively) zero — on the time-major heap, and drained in windows
//     over one partition (steady-k=1) and over two (steady-k=2);
//   - workload: one full experiment-harness run per op, recorders attached;
//   - adversary: steady state with an adaptive adversary installed on the
//     send path (every copy retimed through the clamped view, every delivery
//     hook-dispatched) — the regime E18's adaptive strategies pay for.
func BenchmarkEngineThroughput(b *testing.B) {
	b.Run("steady", bench.EngineSteady)
	b.Run("steady-k=1", bench.EngineSteadyShards(1))
	b.Run("steady-k=2", bench.EngineSteadyShards(2))
	b.Run("workload", bench.EngineWorkload)
	b.Run("adversary", bench.EngineAdversary)
}

// BenchmarkLargeN measures the round-structured broadcast regime: 10
// maintenance rounds of an n-process full mesh (≈ n² messages per round
// inside one delay window) with no observers, so engine and automaton work
// dominate (peak-queue-events is ≈ n² pending copies; B/op shows what a copy
// costs), on the engine a plain run takes: one window partition. The sharded
// sub-benchmark runs the same workload across k worker shards (time-window
// synchronization at lookahead δ−ε), and the -hier one swaps the flat mesh
// for the two-tier hierarchy (clusters of 32, internal/hier): same rounds,
// ≈ 3% of the per-round traffic (msgs-per-round records it).
func BenchmarkLargeN(b *testing.B) {
	b.Run("n=31", bench.LargeN(31))
	b.Run("n=101", bench.LargeN(101))
	b.Run("n=1009", bench.LargeN(1009))
	b.Run("n=1009-sharded-k=8", bench.LargeNSharded(1009, 8))
	b.Run("n=1009-hier", bench.LargeNHier(1009, 32))
}

// BenchmarkApproxAgreementRound measures one synchronous approximate
// agreement round at n=31.
func BenchmarkApproxAgreementRound(b *testing.B) {
	adv := &agreement.SpreadAdversary{}
	cfg := agreement.Config{N: 31, F: 10, Averager: agreement.Midpoint, Adversary: adv}
	init := make([]float64, 31)
	faulty := make([]bool, 31)
	for i := 0; i < 10; i++ {
		faulty[30-i] = true
	}
	rng := rand.New(rand.NewSource(4))
	for i := range init {
		init[i] = rng.Float64()
	}
	st, err := agreement.New(cfg, init, faulty)
	if err != nil {
		b.Fatal(err)
	}
	adv.Observe(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEtherRoute measures the collision channel bookkeeping.
func BenchmarkEtherRoute(b *testing.B) {
	ch := sim.NewEther(0.002, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := clock.Real(float64(i) * 1e-4)
		ch.Route(sim.ProcID(i%10), sim.ProcID((i+1)%10), t, 0.01)
	}
}

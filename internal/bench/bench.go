// Package bench defines the standing engine benchmarks shared by the
// repository's `go test -bench` targets and cmd/benchjson, so the numbers
// committed to BENCH_engine.json are produced by exactly the code the
// benchmarks run.
//
// Two complementary views of the simulator hot path:
//
//   - EngineSteady: the no-observer steady state. One op is one delivered
//     event; allocs/op is the engine's own allocation rate (the
//     zero-allocation target of the event-loop refactor) and the events/sec
//     extra metric is raw queue/clock/delay/dispatch throughput.
//   - EngineWorkload: one full experiment-harness run (maintenance
//     algorithm, n=7 f=2, 10 rounds, all standard recorders attached) per
//     op — the end-to-end cost an experiment table actually pays per trial.
package bench

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/sim"
)

// beacon broadcasts an empty payload and re-arms its timer every period: a
// self-sustaining full mesh of traffic in which every delivered event is
// pure engine work, with no payload allocation and no observer listening.
type beacon struct{ period clock.Local }

func (b *beacon) Receive(ctx *sim.Context, m sim.Message) {
	if m.Kind == sim.KindOrdinary {
		return
	}
	ctx.Broadcast(nil)
	ctx.SetTimer(ctx.PhysNow()+b.period, nil)
}

// adjuster is a beacon with a correction it moves at every timer — once per
// n+1 deliveries, the cadence of a §4.2 process — so a sampled engine of
// adjusters has local times to scan and new configurations to scan them at.
type adjuster struct {
	beacon
	corr clock.Local
}

func (a *adjuster) Receive(ctx *sim.Context, m sim.Message) {
	if m.Kind != sim.KindOrdinary {
		a.corr = -a.corr
	}
	a.beacon.Receive(ctx, m)
}

func (a *adjuster) Corr() clock.Local { return a.corr }

// NewSteadyEngine builds the no-observer benchmark engine: n beacon
// processes on drifting clocks, uniform delays, no observers registered,
// drained time-major (shards 0) or in windows over shards partitions.
func NewSteadyEngine(n int, seed int64, shards int) (*sim.Engine, error) {
	return newSteadyEngine(n, seed, shards, nil, func(int) sim.Process { return &beacon{period: 1e-3} })
}

// newSampledSteadyEngine is NewSteadyEngine over adjusters, for the caller
// to attach samplers to.
func newSampledSteadyEngine(n int, seed int64, shards int) (*sim.Engine, error) {
	return newSteadyEngine(n, seed, shards, nil, func(i int) sim.Process {
		return &adjuster{beacon: beacon{period: 1e-3}, corr: clock.Local(i+1) * 1e-6}
	})
}

func newSteadyEngine(n int, seed int64, shards int, adv sim.Adversary, mk func(i int) sim.Process) (*sim.Engine, error) {
	procs := make([]sim.Process, n)
	starts := make([]clock.Real, n)
	for i := range procs {
		procs[i] = mk(i)
		starts[i] = clock.Real(i) * 1e-4
	}
	return sim.New(sim.Config{
		Procs:     procs,
		Clocks:    clock.Clocks(clock.ConstantDrift{RhoBound: 1e-5}, n),
		StartAt:   starts,
		Delay:     sim.UniformDelay{Delta: 4e-4, Eps: 1e-4},
		Seed:      seed,
		Adversary: adv,
		// The bench loop sizes work by b.N events; never trip the runaway
		// guard under long -benchtime runs.
		MaxSteps: 1 << 40,
		Shards:   shards,
	})
}

// Advance runs eng in fixed horizon chunks until it has delivered at least
// target events, returning the horizon reached. Shared by the benchmarks and
// the CI allocation gate so both measure the same regime.
func Advance(eng *sim.Engine, horizon clock.Real, target int) (clock.Real, error) {
	const chunk = 0.05 // seconds of simulated time per Run call
	for eng.Steps() < target {
		horizon += chunk
		if err := eng.Run(horizon); err != nil {
			return horizon, err
		}
	}
	return horizon, nil
}

// runSteps is Advance with benchmark error handling.
func runSteps(b *testing.B, eng *sim.Engine, horizon clock.Real, target int) clock.Real {
	horizon, err := Advance(eng, horizon, target)
	if err != nil {
		b.Fatal(err)
	}
	return horizon
}

// EngineSteady benchmarks the no-observer steady state on the time-major
// engine; one op is one delivered event.
func EngineSteady(b *testing.B) { engineSteady(b, 0) }

// EngineSteadyShards is EngineSteady drained in lookahead windows over k
// partitions: at k = 1 on Run's goroutine, at k ≥ 2 on Run's crew.
func EngineSteadyShards(k int) func(*testing.B) {
	return func(b *testing.B) { engineSteady(b, k) }
}

func engineSteady(b *testing.B, shards int) {
	eng, err := NewSteadyEngine(7, 1, shards)
	if err != nil {
		b.Fatal(err)
	}
	horizon := runSteps(b, eng, 0, 2000) // warm the queue and free list
	warm := eng.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	runSteps(b, eng, horizon, warm+b.N)
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(eng.Steps()-warm)/s, "events/sec")
	}
}

// benchAdversary is the adversary benchmark load: an adaptive
// retimer that reads the live spread (the cached view lookup a real
// adversary pays) and pins each copy to a window edge, plus a ReceiveHook
// so the dispatch path is measured too. It mirrors the faults.SkewMax
// shape without importing the strategy registry.
type benchAdversary struct{ recvs int64 }

func (a *benchAdversary) Retime(v *sim.AdversaryView, _, to sim.ProcID, _ clock.Real, base float64) float64 {
	d, e := v.Bounds()
	lo, hi, count := v.LocalTimeSpread(v.Now())
	if count >= 2 {
		if lt, ok := v.LocalTime(to, v.Now()); ok && lt >= (lo+hi)/2 {
			return d - e
		}
		return d + e
	}
	if int(to)%2 == 0 {
		return d - e
	}
	return d + e
}

func (a *benchAdversary) OnReceive(_ *sim.AdversaryView, _ sim.Message) { a.recvs++ }

// NewAdversarySteadyEngine is NewSteadyEngine with an adaptive adversary
// installed on the send path — the regime benchjson gates so a
// regression on the adversary path fails the perf gate
// like any other.
func NewAdversarySteadyEngine(n int, seed int64) (*sim.Engine, error) {
	return newSteadyEngine(n, seed, 0, &benchAdversary{}, func(int) sim.Process { return &beacon{period: 1e-3} })
}

// EngineAdversary benchmarks the steady state with an adaptive adversary
// installed: one op is one delivered event, every copy retimed and every
// delivery hook-dispatched.
func EngineAdversary(b *testing.B) {
	eng, err := NewAdversarySteadyEngine(7, 1)
	if err != nil {
		b.Fatal(err)
	}
	horizon := runSteps(b, eng, 0, 2000)
	warm := eng.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	runSteps(b, eng, horizon, warm+b.N)
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(eng.Steps()-warm)/s, "events/sec")
	}
}

// largeNRounds is how many synchronization rounds one LargeN op simulates.
const largeNRounds = 10

// largeNSystem is one LargeN op's system: the engine configuration and the
// horizon that completes largeNRounds rounds.
type largeNSystem struct {
	cfg     sim.Config
	horizon clock.Real
}

// largeNFlat assembles the large-n benchmark system: n maintenance automata
// (f = (n−1)/3 capacity, no actual faults) on drifting clocks with uniform
// delays and no observers — the round-structured n²-broadcast regime, with
// nothing but engine and automaton work on the clock — drained over shards
// window partitions.
func largeNFlat(n, shards int) (largeNSystem, error) {
	cfg := core.Config{Params: analysis.Default(n, (n-1)/3)}
	if err := cfg.Validate(); err != nil {
		return largeNSystem{}, err
	}
	clocks := clock.Clocks(clock.ConstantDrift{RhoBound: cfg.Rho}, n)
	corrs := core.InitialCorrsWithinBeta(cfg, clocks, 0.9*cfg.Beta)
	starts := core.StartTimes(cfg, clocks, corrs)
	procs := make([]sim.Process, n)
	msgs := core.NewRoundMsgs(cfg, largeNRounds)
	for i := range procs {
		procs[i] = core.NewProc(cfg, corrs[i]).WithRoundMsgs(msgs)
	}
	tmax0 := starts[0]
	for _, s := range starts[1:] {
		if s > tmax0 {
			tmax0 = s
		}
	}
	return largeNSystem{
		cfg: sim.Config{
			Procs:   procs,
			Clocks:  clocks,
			StartAt: starts,
			Delay:   sim.UniformDelay{Delta: cfg.Delta, Eps: cfg.Eps},
			Seed:    1,
			Shards:  shards,
		},
		horizon: tmax0 + clock.Real(float64(largeNRounds*cfg.P*(1+float64(2*cfg.Rho)))+float64(2*cfg.Window())+cfg.Delta+1),
	}, nil
}

// largeN is the one LargeN benchmark loop: per op, build the system and its
// engine, simulate largeNRounds maintenance rounds. events/sec is the
// headline metric (a flat round delivers ≈ n² messages inside one delay
// window) and peak-queue-events the population one: the largest partition's
// high-water mark of pending events, ≈ n²/k copies over k partitions (B/op
// carries what a copy costs: 8 bytes of its fan-out's row).
func largeN(build func() (largeNSystem, error)) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var events, msgs float64
		peak := 0
		for i := 0; i < b.N; i++ {
			sys, err := build()
			if err != nil {
				b.Fatal(err)
			}
			sys.cfg.MaxSteps = 1 << 40
			r, err := sim.New(sys.cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := r.Run(sys.horizon); err != nil {
				b.Fatal(err)
			}
			if rounds := sys.cfg.Procs[0].(interface{ Round() int }).Round(); rounds < largeNRounds {
				b.Fatalf("only %d rounds simulated", rounds)
			}
			events += float64(r.Steps())
			msgs = float64(r.MessagesSent()) // deterministic: identical every op
			peak = r.QueuePeak()
		}
		b.StopTimer()
		b.ReportMetric(events/float64(b.N), "events/op")
		b.ReportMetric(float64(peak), "peak-queue-events")
		b.ReportMetric(msgs/float64(largeNRounds), "msgs-per-round")
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(events/s, "events/sec")
		}
	}
}

// LargeN returns the flat benchmark at size n on the engine a plain run
// takes: one window partition, what internal/exp runs Shards = 0 as.
func LargeN(n int) func(*testing.B) {
	return largeN(func() (largeNSystem, error) { return largeNFlat(n, 1) })
}

// LargeNSharded returns the flat benchmark partitioned across k shards with
// conservative time-window synchronization (lookahead δ−ε); events/sec
// measures the parallel window-drain throughput against LargeN's one
// partition.
func LargeNSharded(n, k int) func(*testing.B) {
	return largeN(func() (largeNSystem, error) { return largeNFlat(n, k) })
}

// LargeNHier returns the two-tier counterpart: n processes in clusters of c
// (internal/hier defaults) on one window partition. Same engine, rounds and
// seed discipline as LargeN, so the events/sec and msgs-per-round entries
// committed next to the flat ones quantify the topology change alone: the
// per-round traffic collapses from n² to ≈ n·c + (n/c)², and with it the
// wall-clock cost of simulating (or running) one round.
func LargeNHier(n, c int) func(*testing.B) {
	return largeN(func() (largeNSystem, error) {
		s, err := hier.Build(hier.Default(n, c))
		if err != nil {
			return largeNSystem{}, err
		}
		cfg := s.SimConfig(largeNRounds, 1)
		cfg.Shards = 1
		return largeNSystem{cfg: cfg, horizon: s.Horizon(largeNRounds)}, nil
	})
}

// EngineWorkload benchmarks one full experiment-harness run per op.
func EngineWorkload(b *testing.B) {
	cfg := core.Config{Params: analysis.Default(7, 2)}
	b.ReportAllocs()
	b.ResetTimer()
	var events, secs float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 10, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		events += float64(res.Steps())
	}
	b.StopTimer()
	secs = b.Elapsed().Seconds()
	b.ReportMetric(events/float64(b.N), "events/op")
	if secs > 0 {
		b.ReportMetric(events/secs, "events/sec")
	}
}

// CrossoverRounds is how many rounds one crossover op simulates.
const CrossoverRounds = 20

// CrossoverOp is one op of the shard-count crossover: a flat run of n
// maintenance processes (f = (n−1)/3, no actual faults) through exp.Run with
// the standard recorders — what a clocksync.Run with no options does — over
// k window partitions.
func CrossoverOp(n, k int) error {
	cfg := core.Config{Params: analysis.Default(n, (n-1)/3)}
	_, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: CrossoverRounds, Seed: 1, Shards: k})
	return err
}

// Crossover is the measured shard-count crossover BENCH_engine.json
// records: on Host, at Revision, the wall time of CrossoverOp for each n
// and k, the k measured in interleaved order (one op at each k, then the
// next round of ops).
type Crossover struct {
	Host       string          `json:"host"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Revision   string          `json:"revision"`
	Rounds     int             `json:"rounds"`
	Rows       []CrossoverCell `json:"rows"`
}

// CrossoverCell is one (n, k) point: the quartiles of its op times in ms.
type CrossoverCell struct {
	N      int     `json:"n"`
	K      int     `json:"k"`
	Ops    int     `json:"ops"`
	Q1Ms   float64 `json:"q1_ms"`
	P50Ms  float64 `json:"p50_ms"`
	Q3Ms   float64 `json:"q3_ms"`
	Winner bool    `json:"winner"`
}

// Winner returns the k that wins at n among the k ≤ GOMAXPROCS that Auto
// may pick (the larger k are recorded as well, for reference): the least
// k, displaced by a larger one only when that one is faster beyond the
// noise of both — its third quartile below the incumbent's first. A k that
// is level within noise costs cores for nothing, so it does not win. Rows
// are in ascending k at each n, as the measurement writes them; 0 means n
// was not measured.
func (c *Crossover) Winner(n int) int {
	var best *CrossoverCell
	for i := range c.Rows {
		if r := &c.Rows[i]; r.N == n && r.K <= c.GOMAXPROCS && (best == nil || r.Q3Ms < best.Q1Ms) {
			best = r
		}
	}
	if best == nil {
		return 0
	}
	return best.K
}

package bench

import (
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sim"
)

// newLargeNKEngine builds a K-exchange variant of the LargeN workload: k
// exchanges per round at calendar scale, spread across the round (SubPeriod
// = P/k) or, with dense set, packed at the sub-period floor (PMin·1.05) so
// consecutive sub-round fan-outs tile into near-continuous traffic. These
// are the two shapes the calendar's old width tuner needed a heuristic each
// for (a dead gap between clusters, and no gap at all); the slot-binned
// scheduler has no window to stretch, and sim's TestSubRoundShapesStayBinned
// pins that both stay binned.
func newLargeNKEngine(n, k int, dense bool, seed int64) (*sim.Engine, core.Config, clock.Real, error) {
	cfg := core.Config{Params: analysis.Default(n, (n-1)/3), K: k}
	if k > 1 && !dense {
		cfg.SubPeriod = cfg.P / float64(k)
	}
	if err := cfg.Validate(); err != nil {
		return nil, cfg, 0, err
	}
	drift := clock.ConstantDrift{RhoBound: cfg.Rho}
	clocks := make([]clock.Clock, n)
	for i := range clocks {
		clocks[i] = drift.Build(i, n)
	}
	corrs := core.InitialCorrsWithinBeta(cfg, clocks, 0.9*cfg.Beta)
	starts := core.StartTimes(cfg, clocks, corrs)
	procs := make([]sim.Process, n)
	for i := range procs {
		procs[i] = core.NewProc(cfg, corrs[i])
	}
	tmax0 := starts[0]
	for _, s := range starts[1:] {
		if s > tmax0 {
			tmax0 = s
		}
	}
	scfg := sim.Config{
		Procs:    procs,
		Clocks:   clocks,
		StartAt:  starts,
		Delay:    sim.UniformDelay{Delta: cfg.Delta, Eps: cfg.Eps},
		Seed:     seed,
		MaxSteps: 1 << 40,
	}
	eng, err := sim.New(scfg)
	return eng, cfg, tmax0, err
}

// BenchmarkLargeNK measures the calendar queue under K-exchange sub-rounds
// at n=1009. Every variant should sit near the flat (k=1) events/sec. On the
// 2-core host, 4 rounds per op: k=8 23.4 s → 11.3 s and k=8-dense 23.0 s →
// 13.3 s from the tuned calendar to the slot-binned one (268 → 46 MB/op).
// Four maintenance rounds per op keep one op under a minute.
func BenchmarkLargeNK(b *testing.B) {
	for _, v := range []struct {
		k     int
		dense bool
	}{{1, false}, {2, false}, {4, false}, {8, false}, {8, true}} {
		name := "n=1009/k=" + strconv.Itoa(v.k)
		if v.dense {
			name += "-dense"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var events float64
			for i := 0; i < b.N; i++ {
				eng, cfg, tmax0, err := newLargeNKEngine(1009, v.k, v.dense, 1)
				if err != nil {
					b.Fatal(err)
				}
				rounds := 4
				horizon := tmax0 + clock.Real(float64(rounds)*cfg.P*(1+2*cfg.Rho)+2*cfg.Window()+cfg.Delta+1)
				if err := eng.Run(horizon); err != nil {
					b.Fatal(err)
				}
				if r := eng.Process(0).(*core.Proc).Round(); r < rounds {
					b.Fatalf("only %d rounds simulated", r)
				}
				events += float64(eng.Steps())
			}
			b.StopTimer()
			b.ReportMetric(events/float64(b.N), "events/op")
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(events/s, "events/sec")
			}
		})
	}
}

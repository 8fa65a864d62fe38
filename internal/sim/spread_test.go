package sim_test

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// spreadProc is a minimal CorrHolder automaton: it re-arms a periodic timer
// and nudges its correction by step on every delivery, so with a nonzero
// step every delivery starts a new configuration and with a zero step none
// does.
type spreadProc struct {
	corr clock.Local
	step clock.Local
}

func (p *spreadProc) Receive(ctx *sim.Context, m sim.Message) {
	p.corr += p.step
	if m.Kind == sim.KindOrdinary {
		return
	}
	ctx.Broadcast(nil)
	ctx.SetTimer(ctx.PhysNow()+5e-3, nil)
}

func (p *spreadProc) Corr() clock.Local { return p.corr }

// newSpreadEngine builds n spreadProcs on linear clocks; step scales every
// process's per-delivery nudge (0 freezes the corrections).
func newSpreadEngine(t testing.TB, n int, step clock.Local) *sim.Engine {
	eng, err := sim.New(spreadConfig(n, step, make([]*spreadProc, n)))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// spreadConfig is newSpreadEngine's configuration; it also hands the
// automata back through procs.
func spreadConfig(n int, step clock.Local, procs []*spreadProc) sim.Config {
	cfg := sim.Config{
		Procs:   make([]sim.Process, n),
		Clocks:  make([]clock.Clock, n),
		StartAt: make([]clock.Real, n),
		Delay:   sim.UniformDelay{Delta: 2e-3, Eps: 1e-3},
		Seed:    9,
	}
	for i := range procs {
		procs[i] = &spreadProc{corr: clock.Local(i) * 1e-3, step: clock.Local(i%2*2-1) * step}
		cfg.Procs[i] = procs[i]
		cfg.Clocks[i] = clock.Linear(clock.Local(i)*1e-4, 1+1e-5*float64(i%2))
		cfg.StartAt[i] = clock.Real(i) * 1e-4
	}
	return cfg
}

func TestLocalTimeSpreadMatchesLegacyScan(t *testing.T) {
	eng := newSpreadEngine(t, 9, 1e-6)
	chk := simtest.NewOracle(t)
	eng.Observe(chk)
	if err := eng.Run(0.5); err != nil {
		t.Fatal(err)
	}
	if chk.Checks < 1000 {
		t.Fatalf("only %d checks; workload too small to be meaningful", chk.Checks)
	}
}

// sampleCount counts the sample points of a run.
type sampleCount int

func (c *sampleCount) Sample(*sim.Engine, bool) { *c++ }

// TestSamplerBudget pins the sampling rule's cost: on the flat n = 101 mesh
// over 20 rounds, time-major and on two shards, the samplers fire at most
// twice per correction change, once per clock breakpoint (none: the drift is
// constant) and per instant a recorder asked for (the skew recorder's
// warm-up and the validity recorder's anchor), and at Run entry and the
// horizon — not around each of the ≈ 2·10⁵ deliveries.
func TestSamplerBudget(t *testing.T) {
	const breakpoints, edges = 0, 2
	for _, k := range []int{0, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			var calls sampleCount
			res, err := exp.Run(exp.Workload{
				Cfg: core.Config{Params: analysis.Default(101, 33)}, Rounds: 20, Seed: 1, Shards: k,
				Observers: []sim.Observer{&calls},
			})
			if err != nil {
				t.Fatal(err)
			}
			changes := res.Rounds.Adjustments() // one nonfaulty correction change each
			budget := 2*changes + breakpoints + edges + 2
			t.Logf("%d sample points for %d correction changes and %d deliveries", calls, changes, res.Steps())
			if changes < 1000 || int(calls) > budget {
				t.Fatalf("%d sample points for %d correction changes; want at most %d", calls, changes, budget)
			}
		})
	}
}

// TestKineticExtremesO1 pins what the kinetic extremes buy: on the two-tier
// n = 529 system over 10 rounds, where a correction moves at about one
// delivery in fifteen and every move is read twice, at most 5 % of the
// evaluations at sample points scan every row; the rest are served from the
// two certificated extremes.
func TestKineticExtremesO1(t *testing.T) {
	s, err := hier.Build(hier.Default(529, 23))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(exp.Workload{Hier: s, Rounds: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	evals, scans := res.TablePasses()
	t.Logf("%d full scans over %d evaluations (%.2f %%)", scans, evals, 100*float64(scans)/float64(evals))
	if evals < 10_000 || scans*20 > evals {
		t.Fatalf("%d full scans over %d evaluations; want ≤ 5 %% of at least 10⁴", scans, evals)
	}
}

// idleProc holds a fixed correction and does nothing: after its START the
// engine has no delivery left to sample at.
type idleProc struct{ corr clock.Local }

func (p *idleProc) Receive(*sim.Context, sim.Message) {}
func (p *idleProc) Corr() clock.Local                 { return p.corr }

// TestSamplesAtBends pins the two sample points no delivery supplies. Two idle
// processes START at 0; process 1's clock runs fast until its breakpoint at
// 0.5 and slow after it, so the spread peaks there and falls through the
// skew recorder's warm-up at 0.7. Time-major and windowed, the recorder must
// report the spread at 0.5 as its maximum and the spread at 0.7 as its
// maximum after warm-up, bit for bit.
func TestSamplesAtBends(t *testing.T) {
	bent, err := clock.New(0, []clock.Breakpoint{{Start: 0, Rate: 1 + 1e-3}, {Start: 0.5, Rate: 1 - 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1} {
		eng, err := sim.New(sim.Config{
			Procs:   []sim.Process{&idleProc{}, &idleProc{}},
			Clocks:  []clock.Clock{clock.Linear(0, 1), bent},
			StartAt: []clock.Real{0, 0},
			Delay:   sim.UniformDelay{Delta: 2e-3, Eps: 1e-3},
			Shards:  shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		skew := &metrics.SkewRecorder{Warmup: 0.7}
		if err := eng.Observe(skew); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(1); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what string
			at   clock.Real
			got  float64
		}{{"max", 0.5, skew.Max()}, {"max after warm-up", 0.7, skew.MaxAfterWarmup()}} {
			lo, hi, _ := simtest.LiveSpread(eng, c.at)
			simtest.SameBits(t, fmt.Sprintf("shards=%d: %s", shards, c.what), float64(hi-lo), c.got)
		}
	}
}

// TestLocalTimeSpreadHistoricalTime checks that asking for a time other than
// the current sample point bypasses (and does not poison) the current pass.
func TestLocalTimeSpreadHistoricalTime(t *testing.T) {
	eng := newSpreadEngine(t, 5, 1e-6)
	if err := eng.Run(0.2); err != nil {
		t.Fatal(err)
	}
	now := eng.Now()
	lo, hi, n := eng.LocalTimeSpread(now) // evaluate the pass
	past := now - 0.05
	plo, phi, pn := eng.LocalTimeSpread(past)
	wlo, whi, wn := simtest.LiveSpread(eng, past)
	if plo != wlo || phi != whi || pn != wn {
		t.Fatalf("historical spread = (%v, %v, %d), want (%v, %v, %d)", plo, phi, pn, wlo, whi, wn)
	}
	if l2, h2, n2 := eng.LocalTimeSpread(now); l2 != lo || h2 != hi || n2 != n {
		t.Fatalf("pass poisoned by historical query: (%v, %v, %d) != (%v, %v, %d)", l2, h2, n2, lo, hi, n)
	}
}

// TestClockTableRefreshedInPlace pins the table's allocation behaviour: built
// once, at the first Run, and from then on refreshed in place — by the
// per-delivery re-read and by the every-row reload after a timeline action.
func TestClockTableRefreshedInPlace(t *testing.T) {
	const actions = 200
	procs := make([]*spreadProc, 9)
	cfg := spreadConfig(9, 1e-6, procs)
	for i := 1; i <= actions; i++ {
		cfg.Timeline = append(cfg.Timeline, sim.TimedAction{At: clock.Real(i) * 1e-3, Name: "nudge", Do: func(*sim.Engine) {
			for _, p := range procs {
				p.corr += 1e-5
			}
		}})
	}
	eng, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Observe(&spreadReaders{})
	h := clock.Real(0.05) // 50 actions and the table's build are warm-up
	if err := eng.Run(h); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		h += 0.02 // 20 actions a slice
		if err := eng.Run(h); err != nil {
			panic(err)
		}
	})
	if allocs != 0 || eng.TimelineRemaining() > actions-150 {
		t.Fatalf("%v allocations per slice of 20 timeline actions (%d actions left); the table must be refreshed in place", allocs, eng.TimelineRemaining())
	}
}

// spreadReaders stands for the readers the standard harness attaches (skew
// recorder, validity recorder and, with conformance checking on, the
// agreement invariant): three spread reads per sample point, through the
// engine or through the live walk each observer used to make for itself.
type spreadReaders struct {
	live bool
	sink clock.Local
}

func (r *spreadReaders) Sample(e *sim.Engine, _ bool) {
	for i := 0; i < 3; i++ {
		if r.live {
			lo, hi, _ := simtest.LiveSpread(e, e.Now())
			r.sink += hi - lo
		} else {
			lo, hi, _ := e.LocalTimeSpread(e.Now())
			r.sink += hi - lo
		}
	}
}

// BenchmarkSpreadScan prices one delivered event's sampling, three spread
// readers a sample point, by driving deliveries through the engine.
// "changed-corr" has every delivery move the recipient's correction, so each
// event has two sample points, before and after the change, and each costs
// one evaluation of the clock table; "unchanged" moves none (what
// ~(n+1)/(n+2) of a §4.2 run's deliveries look like), so no sampler fires.
// "per-observer-rescan" is the pre-table reference: every reader walks
// NonfaultyIDs × LocalTime itself. The same event stream with no sampler is
// "engine-only"; subtract it to isolate the sampling.
func BenchmarkSpreadScan(b *testing.B) {
	cases := []struct {
		name    string
		step    clock.Local
		readers *spreadReaders
	}{
		{"engine-only", 1e-9, nil},
		{"per-observer-rescan", 1e-9, &spreadReaders{live: true}},
		{"changed-corr", 1e-9, &spreadReaders{}},
		{"unchanged", 0, &spreadReaders{}},
	}
	for _, n := range []int{7, 31, 101, 529} {
		for _, c := range cases {
			b.Run(c.name+"/n="+strconv.Itoa(n), func(b *testing.B) {
				eng := newSpreadEngine(b, n, c.step)
				if c.readers != nil {
					eng.Observe(c.readers)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for h := clock.Real(0); eng.Steps() < b.N; {
					h += 5e-3
					if err := eng.Run(h); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(eng.Steps()), "ns/event")
			})
		}
	}
}

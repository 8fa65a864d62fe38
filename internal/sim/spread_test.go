package sim_test

import (
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
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

// TestKineticExtremesO1 pins what the kinetic extremes buy: on the flat
// n = 101 mesh over 20 rounds, sampled before and after every delivery, at
// most 1 % of the configurations the clock table evaluates take a full scan
// of its rows; the rest are served from the two certificated extremes.
func TestKineticExtremesO1(t *testing.T) {
	res, err := exp.Run(exp.Workload{Cfg: core.Config{Params: analysis.Default(101, 33)}, Rounds: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	evals, scans := res.TablePasses()
	t.Logf("%d full scans over %d evaluations (%.3f %%)", scans, evals, 100*float64(scans)/float64(evals))
	if evals < 100_000 || scans*100 > evals {
		t.Fatalf("%d full scans over %d evaluations; want ≤ 1 %% of at least 10⁵", scans, evals)
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
// once, at the first read, and from then on refreshed in place — by the
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

// BenchmarkSpreadScan prices one delivered event's sampling — the pre- and
// the post-delivery sample point, three spread readers each — by driving
// deliveries through the engine. "changed-corr" has every delivery move the
// recipient's correction, so both sample points of an event are new
// configurations and each costs one evaluation of the clock table; "unchanged"
// moves none (what ~(n+1)/(n+2) of a §4.2 run's deliveries look like), so the
// post-delivery sample is served from the pre-delivery evaluation.
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

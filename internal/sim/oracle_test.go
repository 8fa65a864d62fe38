package sim_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/hier"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// TestOracleDifferential holds the engine against two references in every
// run below. The clock table must equal the live NonfaultyIDs × LocalTime
// walk, bit for bit, at every callback of the time-major engine
// (simtest.Oracle). The sampling rule must lose nothing: the maxima the skew
// recorder, the validity recorder and the agreement checker report must equal
// those of fresh recorders fed the live walk at every delivery and every
// sample point (simtest.Dense), bit for bit. A windowed run must then report
// the time-major run's numbers. The scenario corpus has its own leg next to
// the compiler, TestOracleScenarios in internal/scenario.
func TestOracleDifferential(t *testing.T) {
	// run drives one harness workload time-major with the oracle attached
	// everywhere the harness lets an observer in, and the dense reference
	// next to it. A windowed workload (Shards ≥ 1) runs again as given,
	// and that run is returned.
	run := func(t *testing.T, w exp.Workload) *exp.Result {
		t.Helper()
		o, ref := simtest.NewOracle(t), &simtest.Dense{}
		tm := w
		tm.Shards = 0
		tm.Observers = append(slices.Clone(w.Observers), o, ref)
		if w.Adversary != nil {
			tm.Adversary = o.Wrap(w.Adversary)
		}
		res, err := exp.Run(tm)
		if err != nil {
			t.Fatal(err)
		}
		if o.Checks < 100 {
			t.Fatalf("only %d oracle checks", o.Checks)
		}
		simtest.CheckMaxima(t, res, ref)
		if w.Shards == 0 {
			return res
		}
		if w.Hier != nil { // a built two-tier system runs once: rebuild it
			if w.Hier, err = hier.Build(w.Hier.Cfg); err != nil {
				t.Fatal(err)
			}
		}
		win, err := exp.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, res, win)
		o.Check(win.Engine, "windowed run's horizon")
		return win
	}
	cfg := core.Config{Params: analysis.Default(7, 2)}

	// An E17 conformance slice: every schedule-driven strategy at (7, 2)
	// with the invariant suite — whose Monotonicity reads LocalTimes —
	// attached, so suite and oracle see the same configurations.
	for i, s := range faults.ScheduleDriven() {
		t.Run("conformance/"+s.Name, func(t *testing.T) {
			mix, _ := faults.Place(s, cfg, nil, int64(17+i), 0)
			res := run(t, exp.Workload{Cfg: cfg, Rounds: 6, Seed: 7, CheckInvariants: true, Faults: mix})
			if !res.Invariants.Ok() {
				t.Fatalf("invariants: %s", res.Invariants.Summary())
			}
		})
	}

	// The kinetic extremes at their two edges. Tied: every process starts at
	// real time 0 with CORR 0 on a drift-free clock under constant delays, so
	// every gap between local times is 0 and every evaluation falls inside
	// the certificates' guard band. Long: 10⁴ rounds, so certificates age and
	// re-anchored bound lines accumulate rounding while |t| grows to hours.
	t.Run("kinetic/tied", func(t *testing.T) {
		starts := map[sim.ProcID]clock.Real{}
		for i := range cfg.N {
			starts[sim.ProcID(i)] = 0
		}
		res := run(t, exp.Workload{
			Cfg: cfg, Rounds: 6, Seed: 7,
			Drift:         clock.ConstantDrift{},
			Delay:         sim.ConstantDelay{Delta: cfg.Delta},
			MakeProc:      func(sim.ProcID, clock.Local) sim.Process { return core.NewProc(cfg, 0) },
			StartOverride: starts,
		})
		if evals, scans := res.TablePasses(); scans != evals || res.Skew.Max() != 0 {
			t.Fatalf("%d of %d evaluations scanned, skew %v; want every one, tied", scans, evals, res.Skew.Max())
		}
	})
	t.Run("kinetic/long", func(t *testing.T) {
		res := run(t, exp.Workload{Cfg: cfg, Rounds: 10_000, Seed: 21})
		// The oracle's and the dense reference's own LocalTimes reads scan
		// too, at every delivery.
		if evals, scans := res.TablePasses(); scans*2 > evals {
			t.Fatalf("%d of %d evaluations scanned; the certificates served too few", scans, evals)
		}
	})

	// The adaptive adversaries read the spread inside Receive, per copy.
	for _, name := range []string{"skewmax", "splitter"} {
		t.Run("adaptive/"+name, func(t *testing.T) {
			s, err := faults.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w := exp.Workload{Cfg: cfg, Rounds: 6, Seed: 18}
			w.Faults, w.Adversary = faults.Place(s, cfg, nil, 18, 0)
			run(t, w)
		})
	}

	// Multi-segment clocks: the run crosses a breakpoint of every clock every
	// 50 ms (a few hundred crossings), the oracle's historical reads straddle
	// them.
	for name, drift := range map[string]clock.DriftSchedule{
		"random-walk": clock.RandomWalkDrift{RhoBound: cfg.Rho, SegmentDur: 0.05, Horizon: 10, Seed: 3},
		"alternating": clock.AlternatingDrift{RhoBound: cfg.Rho, Period: 0.05, Horizon: 10},
	} {
		t.Run("drift/"+name, func(t *testing.T) {
			if segs := drift.Build(0, 7).Segments(); segs < 100 {
				t.Fatalf("%d segments", segs)
			}
			res := run(t, exp.Workload{Cfg: cfg, Rounds: 5, Seed: 5, Drift: drift, CheckInvariants: true})
			if res.Horizon < 5 {
				t.Fatalf("horizon %v crosses too few breakpoints", res.Horizon)
			}
		})
	}

	// A nonfaulty-marked process behind the crash/rejoin wrapper that dies
	// mid-run: its row mirrors the wrapper's Corr, which freezes.
	t.Run("crash-after-wrapped", func(t *testing.T) {
		run(t, exp.Workload{
			Cfg: cfg, Rounds: 6, Seed: 8,
			MakeProc: func(id sim.ProcID, corr clock.Local) sim.Process {
				if id == 3 {
					return core.NewCrashRejoin(cfg, corr, 2.5)
				}
				return core.NewProc(cfg, corr)
			},
		})
	})

	// Multi-segment clocks on the windowed engine: breakpoints fall inside
	// windows, so the replay at each cut moves rows across them with the
	// corrections of the past.
	for name, c := range map[string]struct {
		drift clock.DriftSchedule
		k     int
	}{
		"random-walk": {clock.RandomWalkDrift{RhoBound: cfg.Rho, SegmentDur: 0.05, Horizon: 10, Seed: 3}, 2},
		"alternating": {clock.AlternatingDrift{RhoBound: cfg.Rho, Period: 0.05, Horizon: 10}, 4},
	} {
		t.Run("sharded-drift/"+name, func(t *testing.T) {
			run(t, exp.Workload{Cfg: cfg, Rounds: 5, Seed: 5, Drift: c.drift, Shards: c.k, CheckInvariants: true})
		})
	}

	// Flat, sharded: the replay at each cut against the time-major run.
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("sharded-flat/k=%d", k), func(t *testing.T) {
			c := core.Config{Params: analysis.Default(40, 13)}
			run(t, exp.Workload{Cfg: c, Rounds: 4, Seed: 9, Shards: k, CheckInvariants: true})
		})
	}

	// Three two-faced processes in a system built for two (E05b's): the
	// invariants break, and the windowed run must report the time-major
	// run's violations — times, processes and amounts — as well as its
	// maxima.
	t.Run("sharded-beyond-f", func(t *testing.T) {
		mix := map[sim.ProcID]func() sim.Process{}
		for id := sim.ProcID(4); id < 7; id++ {
			mix[id] = func() sim.Process {
				return &faults.TwoFaced{Cfg: cfg, Lead: 9e-3, Lag: 9e-3, EarlyTo: func(to sim.ProcID) bool { return to < 2 }}
			}
		}
		res := run(t, exp.Workload{
			Cfg: cfg, Rounds: 8, Seed: 3, Faults: mix, Shards: 2, CheckInvariants: true,
			Delay: sim.ExtremalDelay{Delta: cfg.Delta, Eps: cfg.Eps},
		})
		if res.Invariants.Ok() {
			t.Fatal("no invariant broke: nothing to compare")
		}
	})

	// Attribution in the replay: an envelope no local time fits, so every
	// sample point violates validity on both sides and names the extreme
	// processes there, in the past of the cut; the windowed run must name
	// the time-major run's.
	t.Run("sharded-attribution", func(t *testing.T) {
		c := core.Config{Params: analysis.Default(40, 13)}
		named := func(shards int) []invariant.Violation {
			v := invariant.NewValidity(metrics.NewValidityRecorder(c.Params, 0, 0))
			v.Alpha3 = -1
			if _, err := exp.Run(exp.Workload{Cfg: c, Rounds: 2, Seed: 9, Shards: shards, Observers: []sim.Observer{v}}); err != nil {
				t.Fatal(err)
			}
			return v.Violations()
		}
		tm, win := named(0), named(2)
		if len(tm) == 0 || !reflect.DeepEqual(tm, win) {
			t.Fatalf("windowed validity violations %v, time-major %v", win, tm)
		}
	})

	// Two-tier n = 64 through the path users run (Workload.Hier), with
	// HierAgreement's per-cluster reads: sequential, then sharded
	// k ∈ {1, 2, 4}, where the same checker reads in the replay.
	twoTier := func(t *testing.T, shards int) {
		s, err := hier.Build(hier.Default(64, 8))
		if err != nil {
			t.Fatal(err)
		}
		chk := run(t, exp.Workload{Hier: s, Rounds: 5, Seed: 20, Shards: shards}).HierAgreement
		if chk.Checked() == 0 || !chk.Ok() {
			t.Fatalf("hier-agreement: %d checked, %v", chk.Checked(), chk.Violations())
		}
	}
	t.Run("two-tier/sequential", func(t *testing.T) { twoTier(t, 0) })
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("two-tier/sharded/k=%d", k), func(t *testing.T) { twoTier(t, k) })
	}

	t.Run("chaos", func(t *testing.T) {
		o, ref := simtest.NewOracle(t), &simtest.Dense{}
		skew := &metrics.SkewRecorder{Warmup: 0.3}
		eng := newChaosEngine(t, 12, 0, o, nil, ref, skew)
		if err := eng.Run(0.4); err != nil {
			t.Fatal(err)
		}
		// Between runs the caller may change any correction.
		eng.Process(4).(*chaosProc).corr += 2e-3
		if err := eng.Run(1); err != nil {
			t.Fatal(err)
		}
		if o.Checks < 10000 {
			t.Fatalf("only %d oracle checks", o.Checks)
		}
		simtest.CheckSkew(t, skew, ref)
	})
}

// sameReport holds a windowed run's recorders to the time-major run's: the
// same maxima bit for bit, and the same number of checks.
func sameReport(t *testing.T, tm, win *exp.Result) {
	t.Helper()
	simtest.SameBits(t, "windowed max skew", tm.Skew.Max(), win.Skew.Max())
	simtest.SameBits(t, "windowed steady skew", tm.Skew.MaxAfterWarmup(), win.Skew.MaxAfterWarmup())
	if tm.Validity != nil {
		simtest.SameBits(t, "windowed validity violation", tm.Validity.WorstViolation(), win.Validity.WorstViolation())
		if a, b := tm.Validity.Samples(), win.Validity.Samples(); a != b {
			t.Errorf("windowed validity samples %d, time-major %d", b, a)
		}
	}
	if tm.Invariants != nil {
		if a, b := tm.Invariants.Summary(), win.Invariants.Summary(); a != b {
			t.Errorf("windowed invariants %q, time-major %q", b, a)
		}
		if a, b := tm.Invariants.Violations(), win.Invariants.Violations(); !reflect.DeepEqual(a, b) {
			t.Errorf("windowed invariant violations %v, time-major %v", b, a)
		}
	}
	if h := tm.HierAgreement; h != nil {
		simtest.SameBits(t, "windowed hier-agreement spread", h.MaxSpread(), win.HierAgreement.MaxSpread())
		if a, b := h.Checked(), win.HierAgreement.Checked(); a != b {
			t.Errorf("windowed hier-agreement checks %d, time-major %d", b, a)
		}
		if a, b := h.Violations(), win.HierAgreement.Violations(); !reflect.DeepEqual(a, b) {
			t.Errorf("windowed hier-agreement violations %v, time-major %v", b, a)
		}
	}
}

// chaosProc changes its correction on random deliveries, with and without
// annotating, and has the oracle (when it has one) read the table before and
// after doing so — inside its own Receive, which is all the sim.CorrHolder
// contract allows. With meddle set it also, once, writes a peer's
// correction: the breach the oracle exists to catch.
type chaosProc struct {
	corr   clock.Local
	rng    *rand.Rand
	eng    **sim.Engine
	o      *simtest.Oracle
	peers  []*chaosProc
	meddle *bool // set once a peer's correction has been written
}

func (p *chaosProc) Corr() clock.Local { return p.corr }

func (p *chaosProc) Receive(ctx *sim.Context, m sim.Message) {
	p.check("chaos: entering Receive")
	switch p.rng.Intn(4) {
	case 0:
		p.corr += clock.Local(p.rng.NormFloat64()) * 1e-4
	case 1:
		p.corr += clock.Local(p.rng.NormFloat64()) * 1e-4
		ctx.Annotate("chaos", float64(p.corr))
	case 2:
		ctx.Annotate("chaos-unchanged", 0)
	}
	p.check("chaos: after changing CORR")
	if ctx.ID() == 0 && p.meddle != nil && !*p.meddle && float64((*p.eng).Now()) > 0.1 {
		p.peers[5].corr += 1e-3
		*p.meddle = true
	}
	if m.Kind != sim.KindOrdinary {
		ctx.Broadcast(nil)
		ctx.SetTimer(ctx.PhysNow()+7e-3, nil)
	}
}

func (p *chaosProc) check(where string) {
	if p.o != nil {
		p.o.Check(*p.eng, where)
	}
}

// newChaosEngine builds n chaosProcs (one of them marked faulty, one on a
// two-segment clock) with obs attached. Time-major (shards = 0) it attaches o
// as observer and adversary too, and a timeline whose actions rewrite every
// correction — reading the table inside the action before and, every other
// action, after. A windowed engine, which takes neither, leaves o out.
// meddle, when non-nil, arms the breach.
func newChaosEngine(t *testing.T, n, shards int, o *simtest.Oracle, meddle *bool, obs ...sim.Observer) *sim.Engine {
	var eng *sim.Engine
	procs := make([]sim.Process, n)
	peers := make([]*chaosProc, n)
	clocks := make([]clock.Clock, n)
	starts := make([]clock.Real, n)
	faulty := make([]bool, n)
	for i := range procs {
		peers[i] = &chaosProc{
			corr: clock.Local(i) * 1e-3, rng: rand.New(rand.NewSource(int64(i) + 1)),
			eng: &eng, peers: peers, meddle: meddle,
		}
		if shards == 0 {
			peers[i].o = o
		}
		procs[i] = peers[i]
		clocks[i] = clock.Linear(clock.Local(i)*1e-4, 1+1e-5*float64(i%3))
		starts[i] = clock.Real(i) * 1e-4
	}
	faulty[n-1] = true
	two, err := clock.New(0, []clock.Breakpoint{{Start: 0, Rate: 1}, {Start: 0.5, Rate: 1 + 1e-5}})
	if err != nil {
		t.Fatal(err)
	}
	clocks[1] = two
	cfg := sim.Config{
		Procs: procs, Clocks: clocks, StartAt: starts, Faulty: faulty,
		Delay:  sim.UniformDelay{Delta: 2e-3, Eps: 1e-3},
		Seed:   11,
		Shards: shards,
	}
	for i, at := range []clock.Real{0.2, 0.2, 0.61, 0.8} {
		if shards > 0 {
			break
		}
		cfg.Timeline = append(cfg.Timeline, sim.TimedAction{At: at, Name: "rewrite", Do: func(e *sim.Engine) {
			o.Check(e, "chaos: entering action")
			for _, p := range peers {
				p.corr -= 0.5e-3
			}
			if i%2 == 0 { // the odd actions leave the re-read to the engine
				o.Check(e, "chaos: inside action, corrections rewritten")
			}
		}})
	}
	if shards == 0 {
		cfg.Adversary = o.Wrap(passThrough{})
		obs = append(obs, o)
	}
	eng, err = sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range obs {
		if err := eng.Observe(x); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

type passThrough struct{}

func (passThrough) Retime(_ *sim.AdversaryView, _, _ sim.ProcID, _ clock.Real, base float64) float64 {
	return base
}

// corrPoke is an observer that, once, at its first sample from 0.1 s on,
// writes process 5's correction: a move no Receive of process 5 makes.
type corrPoke struct{ done bool }

func (k *corrPoke) Sample(e *sim.Engine, _ bool) {
	if !k.done && e.Now() >= 0.1 {
		e.Process(5).(*chaosProc).corr += 1e-3
		k.done = true
	}
}

// TestOracleCatchesContractBreach moves a correction outside its process's
// own Receive — what sim.CorrHolder forbids. Time-major, process 0 writes
// process 5's correction inside its own Receive, and the oracle must fail,
// naming the process, the time and both values. On two shards an observer
// writes it during the replay at a cut, and Run must fail naming the process
// and the time: at the cut process 5's row is short of the correction it
// holds. (A peer's write inside a Receive is picked up, on both engines, at
// process 5's next delivery, which reads its correction as its own move.)
func TestOracleCatchesContractBreach(t *testing.T) {
	t.Run("time-major", func(t *testing.T) {
		var report string
		o := &simtest.Oracle{Fail: func(format string, args ...any) { report = fmt.Sprintf(format, args...) }}
		meddled := false
		eng := newChaosEngine(t, 12, 0, o, &meddled)
		if err := eng.Run(0.3); err != nil {
			t.Fatal(err)
		}
		if !meddled {
			t.Fatal("the breach never happened")
		}
		for _, want := range []string{"process 5", "t=0.1", "the clock table has local time", "the live walk", "sim.CorrHolder contract"} {
			if !strings.Contains(report, want) {
				t.Fatalf("oracle report %q does not name %q", report, want)
			}
		}
	})
	t.Run("k=2", func(t *testing.T) {
		poke := &corrPoke{}
		eng := newChaosEngine(t, 12, 2, nil, nil, &metrics.SkewRecorder{}, poke)
		err := eng.Run(0.3)
		if !poke.done {
			t.Fatal("the breach never happened")
		}
		if err == nil {
			t.Fatal("Run returned nil after an observer wrote process 5's correction")
		}
		for _, want := range []string{"process 5", "t=0.1", "sim.CorrHolder contract"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("Run error %q does not name %q", err, want)
			}
		}
	})
}

// physProbe checks, at every delivery, that Context.PhysNow returns its
// clock's At at the delivery time bit for bit, then keeps the traffic going:
// a broadcast and a timer on every START and TIMER.
type physProbe struct {
	t      *testing.T
	clk    clock.Clock
	checks int
}

func (p *physProbe) Receive(ctx *sim.Context, m sim.Message) {
	got, want := ctx.PhysNow(), p.clk.At(m.DeliverAt)
	if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
		p.t.Errorf("process %d at t=%v: PhysNow = %v, its clock's At gives %v", ctx.ID(), m.DeliverAt, got, want)
	}
	p.checks++
	if m.Kind != sim.KindOrdinary {
		ctx.Broadcast(nil)
		ctx.SetTimer(got+7e-3, nil)
	}
}

// batchProbe is a physProbe that takes its copies in batches: it checks
// Context.PhysAt at every copy's time the same way, and counts the pairs of
// copies in one batch that lie out of time order on either side of a clock
// breakpoint — a read before the piece the later copy loaded.
type batchProbe struct {
	physProbe
	straddles int
}

func (p *batchProbe) ReceiveCopies(ctx *sim.Context, _ []sim.ProcID, at []clock.Real) {
	for i, t := range at {
		got, want := ctx.PhysAt(t), p.clk.At(t)
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			p.t.Errorf("process %d, batched copy at t=%v: PhysAt = %v, its clock's At gives %v", ctx.ID(), t, got, want)
		}
		p.checks++
		for _, u := range at[i+1:] {
			if u < t && p.clk.SegmentAt(u).Until <= t {
				p.straddles++
			}
		}
	}
}

// TestPhysNowMatchesAt holds Context.PhysNow, which reads a segment the
// engine keeps per process, to the live Clock.At at every delivery, on
// clocks that cross a breakpoint every 20 ms (so held segments go stale
// between reads) and on linear clocks started up to 1 ms apart (the
// "offset" rows: one piece each, which PhysNow loads once and holds for the
// whole run), time-major and on two shards. On one and two shards it holds
// Context.PhysAt to Clock.At at every copy of every batch, too, batches
// whose unsorted copies straddle a breakpoint included.
func TestPhysNowMatchesAt(t *testing.T) {
	const n, horizon = 8, 1.0
	const rho = 1e-4
	for name, drift := range map[string]clock.DriftSchedule{
		"random-walk": clock.RandomWalkDrift{RhoBound: rho, SegmentDur: 0.02, Horizon: 2 * horizon, Seed: 4},
		"alternating": clock.AlternatingDrift{RhoBound: rho, Period: 0.02, Horizon: 2 * horizon},
		"offset":      clock.ConstantDrift{RhoBound: rho, InitialOffsets: clock.SpreadOffsets(n, 1e-3)},
	} {
		for _, run := range []struct {
			shards int
			batch  bool
		}{{0, false}, {2, false}, {1, true}, {2, true}} {
			sub := fmt.Sprintf("%s/shards=%d", name, run.shards)
			if run.batch {
				sub += "/batch"
			}
			t.Run(sub, func(t *testing.T) {
				cfg := sim.Config{
					Procs:   make([]sim.Process, n),
					Clocks:  make([]clock.Clock, n),
					StartAt: make([]clock.Real, n),
					Delay:   sim.UniformDelay{Delta: 2e-3, Eps: 1e-3},
					Seed:    9,
					Shards:  run.shards,
				}
				probes := make([]*batchProbe, n)
				for i := range probes {
					cfg.Clocks[i] = drift.Build(i, n)
					cfg.StartAt[i] = clock.Real(i) * 1e-4
					probes[i] = &batchProbe{physProbe: physProbe{t: t, clk: cfg.Clocks[i]}}
					cfg.Procs[i] = &probes[i].physProbe
					if run.batch {
						cfg.Procs[i] = probes[i]
					}
				}
				eng, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.Run(horizon); err != nil {
					t.Fatal(err)
				}
				checks, straddles := 0, 0
				for _, p := range probes {
					checks, straddles = checks+p.checks, straddles+p.straddles
				}
				if checks < 10_000 {
					t.Fatalf("only %d PhysNow checks", checks)
				}
				if run.batch && name != "offset" && straddles == 0 {
					t.Fatal("no batch straddled a breakpoint out of time order")
				}
			})
		}
	}
}

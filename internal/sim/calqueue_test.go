package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/clock"
)

// TestSchedulerEquivalenceOnEngine runs one full engine workload — beacon
// processes broadcasting every period on drifting clocks, big enough that
// schedAuto activates the calendar — under all three scheduler modes
// and demands bit-identical delivery sequences: same (DeliverAt, From, To,
// Kind) for every event, in the same order. This is the engine-level
// counterpart of the queue differential test; together with the golden
// experiment tables it backs the claim that the scheduler is a pure
// performance knob.
func TestSchedulerEquivalenceOnEngine(t *testing.T) {
	type delivered struct {
		at   clock.Real
		from ProcID
		to   ProcID
		kind Kind
	}
	run := func(s schedMode) []delivered {
		t.Helper()
		const n = 26 // n² ≈ 700 in-flight: crosses calActivateLen
		procs := make([]Process, n)
		clocks := make([]clock.Clock, n)
		starts := make([]clock.Real, n)
		drift := clock.ConstantDrift{RhoBound: 1e-5}
		for i := range procs {
			procs[i] = &testBeacon{period: 1e-3}
			clocks[i] = drift.Build(i, n)
			starts[i] = clock.Real(i) * 1e-4
		}
		eng, err := newEngine(Config{
			Procs:   procs,
			Clocks:  clocks,
			StartAt: starts,
			Delay:   UniformDelay{Delta: 4e-4, Eps: 1e-4},
			Seed:    7,
		}, s)
		if err != nil {
			t.Fatal(err)
		}
		var log []delivered
		eng.Observe(observerFunc(func(_ *Engine, m Message) {
			log = append(log, delivered{at: m.DeliverAt, from: m.From, to: m.To, kind: m.Kind})
		}))
		if err := eng.Run(0.05); err != nil {
			t.Fatal(err)
		}
		if len(log) < 10*n*n {
			t.Fatalf("scheduler %d: only %d deliveries — not a meaningful comparison", s, len(log))
		}
		return log
	}

	heap := run(schedHeap)
	for _, s := range []schedMode{schedAuto, schedCalendar} {
		got := run(s)
		if len(got) != len(heap) {
			t.Fatalf("scheduler %d delivered %d events, heap delivered %d", s, len(got), len(heap))
		}
		for i := range got {
			if got[i] != heap[i] {
				t.Fatalf("scheduler %d diverges at event %d: %+v vs heap %+v", s, i, got[i], heap[i])
			}
		}
	}
}

// testBeacon is a minimal self-sustaining broadcaster (the bench beacon,
// local to the sim tests).
type testBeacon struct {
	period  clock.Local
	unicast bool // fan out as a Send loop over q = 0..n−1
	block   int  // > 0: fan out as Multicasts over blocks of this many ids
}

func (b *testBeacon) Receive(ctx *Context, m Message) {
	if m.Kind == KindOrdinary {
		return
	}
	fanOutAs(ctx, b.unicast, b.block)
	ctx.SetTimer(ctx.PhysNow()+b.period, nil)
}

// fanOutAs sends a copy to every process in one of the three spellings the
// engine must run as one execution: Multicasts over the consecutive blocks
// [j·block, (j+1)·block) — the last one shorter when block does not divide n
// — when block > 0, a Send loop over q = 0..n−1 when unicast, one Broadcast
// otherwise.
func fanOutAs(ctx *Context, unicast bool, block int) {
	n := ctx.N()
	switch {
	case block > 0:
		for lo := 0; lo < n; lo += block {
			ctx.Multicast(ProcID(lo), ProcID(min(lo+block, n)), nil)
		}
	case unicast:
		for q := 0; q < n; q++ {
			ctx.Send(ProcID(q), nil)
		}
	default:
		ctx.Broadcast(nil)
	}
}

// observerFunc adapts a function to DeliveryObserver.
type observerFunc func(e *Engine, m Message)

func (f observerFunc) OnDeliver(e *Engine, m Message) { f(e, m) }

// TestSlabReleasesPayload is the calendar-mode counterpart of
// TestQueuePopReleasesPayload: once an event is popped, no header may keep
// its Payload alive.
func TestSlabReleasesPayload(t *testing.T) {
	s := &sched{}
	s.init(schedCalendar, 0, 1e-2, 1e-3)
	for i := 0; i < 10; i++ {
		s.push(&Message{Payload: "x", DeliverAt: clock.Real(i) * 1e-3}, uint64(i))
	}
	for s.len() > 0 {
		s.pop()
	}
	for i := range s.hdrs {
		if s.hdrs[i].payload != nil {
			t.Fatalf("header %d still holds payload %v after drain", i, s.hdrs[i].payload)
		}
	}
}

// storm is a broadcast storm driven straight through a sched, the way the
// engine would drive it: n processes, each on a timer every period (first
// firing within spread of zero), each firing broadcasting to all n with
// every copy landing δ−ε … δ+ε later. run delivers everything before until,
// calling check after every broadcast.
type storm struct {
	s                     *sched
	rng                   *rand.Rand
	n                     int
	period, spread        clock.Real
	delta, eps            float64
	seq                   uint64
	copies                []entry
	broadcasts, delivered int
}

func newStorm(mode schedMode, n int, period, spread clock.Real, delta, eps float64, seed int64) *storm {
	st := &storm{
		s: &sched{}, rng: rand.New(rand.NewSource(seed)), n: n, period: period, spread: spread,
		delta: delta, eps: eps, copies: make([]entry, n),
	}
	st.s.init(mode, 0, delta, eps)
	for p := 0; p < n; p++ {
		st.timer(ProcID(p), spread*clock.Real(st.rng.Float64()))
	}
	return st
}

func (st *storm) timer(p ProcID, at clock.Real) {
	st.s.push(&Message{To: p, Kind: KindTimer, DeliverAt: at}, st.seq<<11)
	st.seq++
}

func (st *storm) run(t testing.TB, until clock.Real, check func()) {
	t.Helper()
	var m Message
	last := clock.Real(math.Inf(-1))
	for {
		now, ok := st.s.peekTime()
		if !ok || now >= until {
			return
		}
		if now < last {
			t.Fatalf("storm delivered %v after %v", now, last)
		}
		last = now
		st.s.popMsg(&m)
		st.delivered++
		if m.Kind != KindTimer {
			continue
		}
		for q := range st.copies {
			at := now + clock.Real(st.delta-st.eps+2*st.eps*st.rng.Float64())
			st.copies[q] = entry{at: float64(at), key: st.seq<<11 | uint64(q), to: int32(q)}
		}
		st.s.pushCopies(m.To, now, nil, st.copies)
		st.seq++
		st.broadcasts++
		st.timer(m.To, now+st.period)
		if check != nil {
			check()
		}
	}
}

// TestSlotSpanConverges pins the one geometry rule left: C is cut only when
// a slot opens over calSlotCap, and then in few steps. An n = 1009 storm
// (a million copies a round inside a few delay windows) must settle within
// three cuts, all in the first round; an n = 31 storm never moves C.
func TestSlotSpanConverges(t *testing.T) {
	for _, tc := range []struct{ n, minCuts, maxCuts int }{{1009, 1, 3}, {31, 0, 0}} {
		st := newStorm(schedCalendar, tc.n, 1, 5e-3, 10e-3, 1e-3, 1)
		s := st.s
		c0 := s.c
		var cuts [3]int
		for r := range cuts {
			st.run(t, clock.Real(r+1), nil)
			cuts[r] = s.cuts
		}
		if st.broadcasts != 3*tc.n {
			t.Fatalf("n=%d: %d broadcasts in 3 rounds", tc.n, st.broadcasts)
		}
		if cuts[2] < tc.minCuts || cuts[2] > tc.maxCuts {
			t.Errorf("n=%d: %d cuts (C %.3g → %.3g), want %d…%d", tc.n, cuts[2], c0, s.c, tc.minCuts, tc.maxCuts)
		}
		if cuts[2] != cuts[0] {
			t.Errorf("n=%d: C still moving after the first round: cuts by round %v", tc.n, cuts)
		}
		if tc.maxCuts == 0 && s.c != c0 {
			t.Errorf("n=%d: C moved from %v to %v without a cut", tc.n, c0, s.c)
		}
		if per := st.delivered / s.opened; tc.minCuts > 0 && (per > calSlotCap || per < calSlotCap/16) {
			t.Errorf("n=%d: %d entries per opened window, want within 16× of the cap %d", tc.n, per, calSlotCap)
		}
	}
}

// BenchmarkSchedCrossover is where the scheduler's one fork is measured: the
// same storm through the heap alone and through the calendar, at in-flight
// populations (≈ n² copies) either side of calActivateLen. schedAuto takes
// the heap below the threshold and the calendar from it on; ns/event is the
// time per delivered event, delay draws included.
func BenchmarkSchedCrossover(b *testing.B) {
	for _, n := range []int{8, 16, 32, 101} {
		for _, side := range []struct {
			name string
			mode schedMode
		}{{"heap", schedHeap}, {"calendar", schedCalendar}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, side.name), func(b *testing.B) {
				st := newStorm(side.mode, n, 1, 5e-3, 10e-3, 1e-3, 1)
				st.run(b, 2, nil) // two rounds to carve the stores
				from := st.delivered
				b.ResetTimer()
				for r := 3; st.delivered-from < b.N; r++ {
					st.run(b, clock.Real(r), nil)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.delivered-from), "ns/event")
			})
		}
	}
}

// TestSubRoundShapesStayBinned runs the two K-exchange shapes the deleted
// width tuner grew heuristics for — eight sub-rounds a round, packed at the
// sub-period floor so consecutive fan-outs tile into a continuum, and spread
// P/8 apart so the clusters sit a dead gap apart — and checks that what made
// them slow then cannot happen now: the copies stay binned (the heap never
// holds more than the timers, however the sub-rounds are spaced), C settles
// within the first round, and windows stay under the cap.
func TestSubRoundShapesStayBinned(t *testing.T) {
	const n, k = 256, 8
	for _, sub := range []clock.Real{18e-3, 1.0 / k} {
		st := newStorm(schedCalendar, n, sub, 5e-3, 10e-3, 1e-3, 2)
		s := st.s
		heapPeak := 0
		watch := func() { heapPeak = max(heapPeak, s.heap.len()) }
		st.run(t, k*sub, watch)
		cutsFirst := s.cuts
		st.run(t, 3*k*sub, watch)
		if st.broadcasts != 3*k*n {
			t.Fatalf("sub-period %v: %d broadcasts in 3 rounds of %d sub-rounds", sub, st.broadcasts, k)
		}
		if heapPeak > 2*n {
			t.Errorf("sub-period %v: heap held %d entries; only the %d timers belong there", sub, heapPeak, n)
		}
		if s.cuts > 3 || s.cuts != cutsFirst {
			t.Errorf("sub-period %v: %d cuts, %d of them after the first round", sub, s.cuts, s.cuts-cutsFirst)
		}
		if per := st.delivered / s.opened; per > calSlotCap {
			t.Errorf("sub-period %v: %d entries per opened window, over the cap %d", sub, per, calSlotCap)
		}
	}
}

// FuzzBucketWidth feeds the scheduler degenerate and adversarial inputs —
// zero, denormal, huge, NaN and Inf delay spans, every scheduler mode, hints
// on either side of calActivateLen, slot caps small enough that C is cut
// with bins populated, and arbitrary traffic shapes mixing single messages
// with broadcasts, times before the open slot, beyond the ring, NaN and ±Inf
// — and checks the full pop contract and the pending view against a naive
// sort (see runSchedScript). The calendar may pick any slot span it likes and
// may switch on at any point; the scheduler must never reorder, drop, or
// duplicate an event.
func FuzzBucketWidth(f *testing.F) {
	f.Add(1e-2, 1e-3, int64(1), uint16(50), uint8(schedCalendar), uint16(50), uint8(0))
	f.Add(0.0, 0.0, int64(2), uint16(100), uint8(schedCalendar), uint16(100), uint8(0))
	f.Add(math.NaN(), math.Inf(1), int64(3), uint16(30), uint8(schedCalendar), uint16(30), uint8(0))
	f.Add(-5.0, math.MaxFloat64, int64(4), uint16(80), uint8(schedAuto), uint16(calActivateLen), uint8(0))
	f.Add(5e-324, 1e300, int64(5), uint16(60), uint8(schedHeap), uint16(60), uint8(0))
	f.Add(1e-2, 1e-3, int64(6), uint16(1500), uint8(schedAuto), uint16(0), uint8(0)) // switches on mid-run
	f.Add(1e-2, 1e-3, int64(7), uint16(1500), uint8(schedHeap), uint16(2*calActivateLen), uint8(0))
	f.Add(1e-2, 1e-2, int64(8), uint16(2000), uint8(schedCalendar), uint16(0), uint8(0))  // δ = ε: the open slot takes traffic
	f.Add(3e-3, 1e-3, int64(9), uint16(2000), uint8(schedCalendar), uint16(0), uint8(11)) // a small slot cap, so cuts
	f.Fuzz(func(t *testing.T, delta, eps float64, seed int64, count uint16, mode uint8, hint uint16, slotCap uint8) {
		runSchedScript(t, schedScript{
			mode: schedMode(mode % 3), hint: int(hint) % (4 * calActivateLen),
			delta: delta, eps: eps, seed: seed, ops: int(count) % 2048,
			slotCap: int32(slotCap), // 0 keeps calSlotCap, which no script this short reaches
		})
	})
}

// TestAutoActivationWithLazyHeads pins that the mid-run-activation fuzz seed
// does what its comment says: the calendar switches on while broadcasts with
// several copies left are queued, and the pop order and pending view survive
// it.
func TestAutoActivationWithLazyHeads(t *testing.T) {
	st := runSchedScript(t, schedScript{mode: schedAuto, delta: 1e-2, eps: 1e-3, seed: 6, ops: 1500})
	if st.sharedAtActivation <= 0 {
		t.Fatalf("calendar switched on with %d copies sharing a header queued (−1: never switched on) — the script does not exercise mid-run activation", st.sharedAtActivation)
	}
}

// TestSchedScriptCoverage pins that the seed corpus reaches the paths the
// fuzz target exists for: a cut with bins populated, entries beyond the ring
// and in the open slot, and windows fed from both bins and the heap.
func TestSchedScriptCoverage(t *testing.T) {
	st := runSchedScript(t, schedScript{mode: schedCalendar, slotCap: 11, delta: 3e-3, eps: 1e-3, seed: 9, ops: 2000})
	if st.cuts == 0 || st.binnedAtCut == 0 {
		t.Errorf("small-cap script: %d cuts, %d entries binned at the last one; want both > 0", st.cuts, st.binnedAtCut)
	}
	if st.opened < 10 {
		t.Errorf("small-cap script opened %d windows", st.opened)
	}
	st = runSchedScript(t, schedScript{mode: schedCalendar, delta: 1e-2, eps: 1e-2, seed: 8, ops: 2000})
	if st.heapPeak == 0 || st.binnedPeak == 0 {
		t.Errorf("δ=ε script: heap peak %d, binned peak %d; want traffic in both", st.heapPeak, st.binnedPeak)
	}
}

// schedScript is one randomized scheduler workload. A nonzero slotCap lowers
// the slot cap to a handful of entries, so C is cut while bins are populated.
type schedScript struct {
	mode       schedMode
	hint       int
	slotCap    int32
	delta, eps float64
	seed       int64
	ops        int
}

// schedScriptStats is what a script run observed of the scheduler's insides.
type schedScriptStats struct {
	sharedAtActivation int // copies sharing a header with another, pending when the calendar switched on mid-run; −1 if it never did
	cuts, opened       int
	binnedAtCut        int // entries binned just before the last cut
	heapPeak           int
	binnedPeak         int
}

// canonAt is the time the scheduler orders a delivery by: NaN has no place
// in a total order and is filed as +Inf (see sched.place).
func canonAt(t clock.Real) clock.Real {
	if t != t {
		return clock.Real(math.Inf(1))
	}
	return t
}

// sameMsg compares two messages with NaN delivery times canonicalized (the
// mirror keeps its NaN, a popped message is rebuilt from its entry's +Inf).
func sameMsg(a, b Message) bool {
	a.DeliverAt, b.DeliverAt = canonAt(a.DeliverAt), canonAt(b.DeliverAt)
	return a == b
}

// runSchedScript drives one sched through a random interleaving of push,
// pushCopies and pop, mirrored by a naive list of fully
// materialized events. Every pop must return the mirror's minimum under
// eventLess — a broadcast copy surfaces exactly where the same message sent
// alone would — and forEachPending must yield exactly one message per
// mirrored event, wherever the entry is filed (window, bin or heap), at
// random points and before the final drain. Pushes mostly respect the
// engine's contract (no earlier than the last pop) but also land before the
// open slot, at NaN and at ±Inf, which the scheduler must order all the same.
func runSchedScript(t *testing.T, sc schedScript) schedScriptStats {
	t.Helper()
	s := &sched{slotCap: sc.slotCap}
	s.init(sc.mode, sc.hint, sc.delta, sc.eps)
	rng := rand.New(rand.NewSource(sc.seed))
	popMod := 2 + rng.Intn(7)
	st := schedScriptStats{sharedAtActivation: -1}

	// Payload carries the event's (base) sequence number, so (payload, To)
	// identifies a pending copy in the order-free pending view.
	type copyID struct {
		base uint64
		to   ProcID
	}
	var pending []event
	floor := clock.Real(0)
	seq := uint64(0)
	less := func(a, b *event) bool {
		ca, cb := *a, *b
		ca.msg.DeliverAt, cb.msg.DeliverAt = canonAt(a.msg.DeliverAt), canonAt(b.msg.DeliverAt)
		return eventLess(&ca, &cb)
	}
	// oddTime occasionally replaces a generated time with one the engine
	// would never schedule.
	oddTime := func(at clock.Real) clock.Real {
		switch rng.Intn(64) {
		case 0:
			return clock.Real(math.NaN())
		case 1:
			return clock.Real(math.Inf(1))
		case 2:
			return clock.Real(math.Inf(-1))
		case 3, 4:
			return floor - clock.Real(rng.Float64()*2e-2) // before the open slot
		}
		return at
	}

	popCheck := func() {
		min := 0
		for j := range pending {
			if less(&pending[j], &pending[min]) {
				min = j
			}
		}
		want := pending[min]
		pending = append(pending[:min], pending[min+1:]...)
		if at, ok := s.peekTime(); !ok || at != canonAt(want.msg.DeliverAt) {
			t.Fatalf("peekTime = %v, %v; naive min is at %v (%+v)", at, ok, want.msg.DeliverAt, sc)
		}
		got := s.pop()
		if got.seq != want.seq || !sameMsg(got.msg, want.msg) {
			t.Fatalf("pop returned seq %d %+v, naive min is seq %d %+v (%+v)", got.seq, got.msg, want.seq, want.msg, sc)
		}
		if f := canonAt(got.msg.DeliverAt); f > floor && !math.IsInf(float64(f), 1) {
			floor = f
		}
	}
	viewCheck := func() {
		want := make(map[copyID]Message, len(pending))
		for i := range pending {
			m := pending[i].msg
			want[copyID{m.Payload.(uint64), m.To}] = m
		}
		if len(want) != len(pending) {
			t.Fatalf("mirror ids collide: %d ids for %d events", len(want), len(pending))
		}
		seen := 0
		s.forEachPending(func(m *Message) bool {
			id := copyID{m.Payload.(uint64), m.To}
			if w, ok := want[id]; !ok || !sameMsg(w, *m) {
				t.Fatalf("pending view yields %+v, which is not (or no longer) pending (%+v)", *m, sc)
			}
			delete(want, id)
			seen++
			return true
		})
		if seen != len(pending) || s.len() != len(pending) {
			t.Fatalf("pending view yields %d messages, len() %d, for %d pending copies (%+v)", seen, s.len(), len(pending), sc)
		}
	}

	for i := 0; i < sc.ops; i++ {
		if len(pending) > 0 && rng.Intn(popMod) == 0 {
			cuts, binned := s.cuts, s.binned
			popCheck()
			if s.cuts > cuts {
				st.binnedAtCut = binned
			}
			continue
		}
		if rng.Intn(64) == 0 {
			viewCheck()
		}
		was := s.calOn
		if rng.Intn(4) == 0 {
			// One fan-out: the surviving copies, keyed base | recipient
			// as Engine.fanOut keys them, filed under one header.
			n := 1 + rng.Intn(12)
			var ents []entry
			seq = (seq + 15) &^ 15
			base := seq
			for q := 0; q < n; q++ {
				at := oddTime(genEventAfter(rng, floor, 0).msg.DeliverAt)
				if rng.Intn(5) == 0 {
					continue // lost
				}
				pending = append(pending, event{
					msg: Message{From: 1, To: ProcID(q), Kind: KindOrdinary, Payload: base, SentAt: floor, DeliverAt: at},
					seq: base | uint64(q),
				})
				ents = append(ents, entry{at: float64(at), key: base | uint64(q), to: int32(q)})
			}
			seq += 16
			s.pushCopies(1, floor, base, ents)
		} else {
			ev := genEventAfter(rng, floor, seq)
			ev.msg.DeliverAt = oddTime(ev.msg.DeliverAt)
			ev.msg.Payload = seq
			seq++
			s.push(&ev.msg, ev.seq)
			pending = append(pending, ev)
		}
		if !was && s.calOn {
			st.sharedAtActivation = 0
			for i := range s.hdrs {
				if left := int(s.hdrs[i].left); left > 1 {
					st.sharedAtActivation += left
				}
			}
		}
		st.heapPeak = max(st.heapPeak, s.heap.len())
		st.binnedPeak = max(st.binnedPeak, s.binned)
	}

	viewCheck()
	for len(pending) > 0 {
		popCheck()
	}
	if s.len() != 0 {
		t.Fatalf("queue not empty after drain (%+v)", sc)
	}
	if len(s.hdrFree) != len(s.hdrs) {
		t.Fatalf("%d of %d broadcast headers still held after drain (%+v)", len(s.hdrs)-len(s.hdrFree), len(s.hdrs), sc)
	}
	viewCheck()
	st.cuts, st.opened = s.cuts, s.opened
	return st
}

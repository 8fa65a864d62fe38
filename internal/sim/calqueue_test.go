package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/clock"
)

// TestSchedulerEquivalenceOnEngine runs one full engine workload — beacon
// processes broadcasting every period on drifting clocks, big enough that
// SchedulerAuto activates the calendar — under all three scheduler modes
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
	run := func(s Scheduler) []delivered {
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
		eng, err := New(Config{
			Procs:     procs,
			Clocks:    clocks,
			StartAt:   starts,
			Delay:     UniformDelay{Delta: 4e-4, Eps: 1e-4},
			Seed:      7,
			Scheduler: s,
		})
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

	heap := run(SchedulerHeap)
	for _, s := range []Scheduler{SchedulerAuto, SchedulerCalendar} {
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
type testBeacon struct{ period clock.Local }

func (b *testBeacon) Receive(ctx *Context, m Message) {
	if m.Kind == KindOrdinary {
		return
	}
	ctx.Broadcast(nil)
	ctx.SetTimer(ctx.PhysNow()+b.period, nil)
}

// observerFunc adapts a function to DeliveryObserver.
type observerFunc func(e *Engine, m Message)

func (f observerFunc) OnDeliver(e *Engine, m Message) { f(e, m) }

// TestSlabReleasesPayload is the calendar-mode counterpart of
// TestQueuePopReleasesPayload: once an event is popped, no slab slot may
// keep its Payload alive.
func TestSlabReleasesPayload(t *testing.T) {
	s := &sched{}
	s.init(SchedulerCalendar, 0, 1e-2, 1e-3)
	for i := 0; i < 10; i++ {
		ev := event{msg: Message{Payload: "x", DeliverAt: clock.Real(i) * 1e-3}, seq: uint64(i)}
		s.push(&ev)
	}
	for s.len() > 0 {
		s.pop()
	}
	for i := range s.slab.msgs {
		if s.slab.msgs[i].Payload != nil {
			t.Fatalf("slab slot %d still holds payload %v after drain", i, s.slab.msgs[i].Payload)
		}
	}
}

// TestCalendarTunerConverges checks the width tuner's two signals on the
// adversarial shape that used to defeat it: traffic whose spread is far
// wider than the declared delay window (the horizon signal must widen and
// stay widened — it is sticky), interleaved with dense same-instant spikes
// (the resolution signal must not shrink the window back below the observed
// spread, which would send whole clusters through the overflow heap every
// rotation).
func TestCalendarTunerConverges(t *testing.T) {
	s := &sched{}
	s.init(SchedulerCalendar, 1024, 1e-3, 0) // declared span 1ms
	rng := rand.New(rand.NewSource(5))

	floor := clock.Real(0)
	seq := uint64(0)
	var pending []event
	push := func(at clock.Real) {
		ev := event{msg: Message{DeliverAt: at}, seq: seq}
		seq++
		s.push(&ev)
		pending = append(pending, ev)
	}
	drain := func() { // drain and verify order against the naive reference
		t.Helper()
		for s.len() > 0 {
			got := s.pop()
			min := 0
			for i := range pending {
				if eventLess(&pending[i], &pending[min]) {
					min = i
				}
			}
			if got.seq != pending[min].seq {
				t.Fatalf("pop seq %d, naive min seq %d", got.seq, pending[min].seq)
			}
			pending = append(pending[:min], pending[min+1:]...)
			floor = got.msg.DeliverAt
		}
	}
	for round := 0; round < 6; round++ {
		base := floor + 0.1 // far jump: forces a rotation per round
		// 200 events spread over 8 ms — 8× the declared span — plus a
		// same-instant spike of 40.
		for i := 0; i < 200; i++ {
			push(base + clock.Real(rng.Float64()*8e-3))
		}
		for i := 0; i < 40; i++ {
			push(base + 4e-3)
		}
		drain()
	}
	// After several rounds the window must cover the observed ~8ms spread
	// (the exact spread is the max of the random draws, a hair under 8ms):
	// the sticky horizon floor guarantees rotations stop spilling.
	if got := s.cal.width * float64(len(s.cal.buckets)); got < 7.5e-3 {
		t.Fatalf("tuned horizon %.3gs never grew to the observed ~8ms spread", got)
	}
}

// TestCalendarTunerIgnoresGapSeparatedClusters checks the horizon signal's
// contiguity band: clusters whose spacing fits inside nearLimit but leaves a
// dead gap wider than the contiguity lead must NOT stretch the window across
// the gap — the rotation machinery jumps it instead. (K-exchange sub-rounds
// at sub-period P/k land exactly here; before the band, the tuner widened
// the span to the inter-cluster distance and bucket fill grew ~25×.)
func TestCalendarTunerIgnoresGapSeparatedClusters(t *testing.T) {
	s := &sched{}
	s.init(SchedulerCalendar, 1024, 1e-3, 0) // span 1ms, contiguity lead 2ms, nearLimit 16ms
	rng := rand.New(rand.NewSource(9))

	seq := uint64(0)
	var pending []event
	push := func(at clock.Real) {
		ev := event{msg: Message{DeliverAt: at}, seq: seq}
		seq++
		s.push(&ev)
		pending = append(pending, ev)
	}
	drain := func() {
		t.Helper()
		for s.len() > 0 {
			got := s.pop()
			min := 0
			for i := range pending {
				if eventLess(&pending[i], &pending[min]) {
					min = i
				}
			}
			if got.seq != pending[min].seq {
				t.Fatalf("pop seq %d, naive min seq %d", got.seq, pending[min].seq)
			}
			pending = append(pending[:min], pending[min+1:]...)
		}
	}
	// Rounds of two clusters 10ms apart (inside nearLimit = 16ms, gap far
	// beyond the 2ms contiguity lead), each cluster ~1ms wide. Push both
	// before draining so the second cluster sits in the overflow heap at
	// every rotation — the shape that used to teach the tuner the
	// inter-cluster distance.
	base := clock.Real(0)
	for round := 0; round < 6; round++ {
		for c := 0; c < 2; c++ {
			cbase := base + clock.Real(c)*10e-3
			for i := 0; i < 100; i++ {
				push(cbase + clock.Real(rng.Float64()*1e-3))
			}
		}
		drain()
		base += 20e-3
	}
	// The window must cover one cluster (~1ms plus the seeded 2·span), not
	// the 10ms inter-cluster distance.
	if got := s.cal.width * float64(len(s.cal.buckets)); got > 5e-3 {
		t.Fatalf("tuned horizon %.3gs stretched across the 10ms inter-cluster gap", got)
	}
}

// FuzzBucketWidth feeds the scheduler degenerate and adversarial inputs —
// zero, denormal, huge, NaN and Inf delay spans, every scheduler mode, hints
// on either side of calActivateLen, and arbitrary traffic shapes mixing
// plain events with lazy broadcast records — and checks the full pop
// contract and the pending view against a naive sort (see runSchedScript).
// The tuner may pick any width it likes and the calendar may switch on at
// any point; the scheduler must never reorder, drop, or duplicate an event.
func FuzzBucketWidth(f *testing.F) {
	f.Add(1e-2, 1e-3, int64(1), uint16(50), uint8(SchedulerCalendar), uint16(50))
	f.Add(0.0, 0.0, int64(2), uint16(100), uint8(SchedulerCalendar), uint16(100))
	f.Add(math.NaN(), math.Inf(1), int64(3), uint16(30), uint8(SchedulerCalendar), uint16(30))
	f.Add(-5.0, math.MaxFloat64, int64(4), uint16(80), uint8(SchedulerAuto), uint16(calActivateLen))
	f.Add(5e-324, 1e300, int64(5), uint16(60), uint8(SchedulerHeap), uint16(60))
	f.Add(1e-2, 1e-3, int64(6), uint16(1500), uint8(SchedulerAuto), uint16(0)) // switches on mid-run
	f.Add(1e-2, 1e-3, int64(7), uint16(1500), uint8(SchedulerHeap), uint16(2*calActivateLen))
	f.Fuzz(func(t *testing.T, delta, eps float64, seed int64, count uint16, mode uint8, hint uint16) {
		runSchedScript(t, schedScript{
			mode: Scheduler(mode % 3), hint: int(hint) % (4 * calActivateLen),
			delta: delta, eps: eps, seed: seed, ops: int(count) % 2048,
		})
	})
}

// TestAutoActivationWithLazyHeads pins that the mid-run-activation fuzz seed
// does what its comment says: the calendar switches on while lazy broadcast
// heads are queued, and the pop order and pending view survive it.
func TestAutoActivationWithLazyHeads(t *testing.T) {
	heads := runSchedScript(t, schedScript{mode: SchedulerAuto, delta: 1e-2, eps: 1e-3, seed: 6, ops: 1500})
	if heads <= 0 {
		t.Fatalf("calendar switched on with %d lazy heads queued (−1: never switched on) — the script does not exercise mid-run activation", heads)
	}
}

// schedScript is one randomized scheduler workload.
type schedScript struct {
	mode       Scheduler
	hint       int
	delta, eps float64
	seed       int64
	ops        int
}

// runSchedScript drives one sched through a random interleaving of push,
// pushBroadcast and pop, mirrored by a naive list of fully materialized
// events. Every pop must return the mirror's minimum under eventLess — for a
// lazy record that means each copy surfaces exactly where the eager copy
// would — and forEachPending must yield exactly one message per mirrored
// event, at random points and before the final drain. It returns the number
// of lazy broadcast heads queued at the moment the calendar switched on
// mid-run, or −1 if it never did.
func runSchedScript(t *testing.T, sc schedScript) (headsAtActivation int) {
	t.Helper()
	s := &sched{}
	s.init(sc.mode, sc.hint, sc.delta, sc.eps)
	rng := rand.New(rand.NewSource(sc.seed))
	popMod := 2 + rng.Intn(7)
	headsAtActivation = -1

	// Payload carries the event's (base) sequence number, so (payload, To)
	// identifies a pending copy in the order-free pending view.
	type copyID struct {
		base uint64
		to   ProcID
	}
	var pending []event
	floor := clock.Real(0)
	seq := uint64(0)

	popCheck := func() {
		min := 0
		for j := range pending {
			if eventLess(&pending[j], &pending[min]) {
				min = j
			}
		}
		want := pending[min]
		pending = append(pending[:min], pending[min+1:]...)
		got := s.pop()
		if got.seq != want.seq || got.msg != want.msg {
			t.Fatalf("pop returned seq %d %+v, naive min is seq %d %+v (%+v)", got.seq, got.msg, want.seq, want.msg, sc)
		}
		floor = got.msg.DeliverAt
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
			if w, ok := want[id]; !ok || w != *m {
				t.Fatalf("pending view yields %+v, which is not (or no longer) pending (%+v)", *m, sc)
			}
			delete(want, id)
			seen++
			return true
		})
		if seen != len(pending) {
			t.Fatalf("pending view yields %d messages for %d pending copies (%+v)", seen, len(pending), sc)
		}
	}

	for i := 0; i < sc.ops; i++ {
		if len(pending) > 0 && rng.Intn(popMod) == 0 {
			popCheck()
			continue
		}
		if rng.Intn(64) == 0 {
			viewCheck()
		}
		was := s.calOn
		if rng.Intn(4) == 0 {
			// One lazy fan-out: copies sequence-numbered in pid order over
			// the routed recipients, exactly as Engine.broadcastLazy does.
			n := 1 + rng.Intn(12)
			at, ok := make([]clock.Real, n), make([]bool, n)
			base := seq
			for q := range at {
				at[q] = genEventAfter(rng, floor, 0).msg.DeliverAt
				if ok[q] = rng.Intn(5) != 0; !ok[q] {
					continue
				}
				pending = append(pending, event{
					msg: Message{From: 1, To: ProcID(q), Kind: KindOrdinary, Payload: base, SentAt: floor, DeliverAt: at[q]},
					seq: seq,
				})
				seq++
			}
			s.pushBroadcast(1, floor, base, at, ok, nil, base, false)
		} else {
			ev := genEventAfter(rng, floor, seq)
			ev.msg.Payload = seq
			seq++
			s.push(&ev)
			pending = append(pending, ev)
		}
		if !was && s.calOn {
			headsAtActivation = len(s.bcasts.recs) - len(s.bcasts.free)
		}
	}

	viewCheck()
	for len(pending) > 0 {
		popCheck()
	}
	if s.len() != 0 {
		t.Fatalf("queue not empty after drain (%+v)", sc)
	}
	viewCheck()
	return headsAtActivation
}

package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/clock"
)

// event is the naive mirrors' form of a buffered message: the full Message
// and the sequence number that breaks delivery-time ties by insertion order.
type event struct {
	msg Message
	seq uint64
}

// eventLess is the reference order the naive mirrors sort by: delivery
// time, then ordinary (and START) messages before TIMER messages — execution
// property 4 of §2.3 — then insertion order. It is written against full
// events, independently of the packed entry key the scheduler compares.
func eventLess(a, b *event) bool {
	if a.msg.DeliverAt != b.msg.DeliverAt {
		return a.msg.DeliverAt < b.msg.DeliverAt
	}
	at, bt := a.msg.Kind == KindTimer, b.msg.Kind == KindTimer
	if at != bt {
		return !at // non-TIMER first
	}
	return a.seq < b.seq
}

// pop removes and returns the minimum event with its sequence number, read
// off the entry's key; the queue must be nonempty. (The engine's event loop
// only needs the message.)
func (s *sched) pop() event {
	en := s.heap.pop()
	ev := event{seq: en.key &^ entryTimerBit}
	s.take(en, &ev.msg)
	return ev
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

// TestQueueMatchesNaiveSort cross-checks the scheduler against a naive
// reference: under random push/pop interleavings, every pop must return
// exactly the minimum of the outstanding events in (DeliverAt, non-TIMER
// first, seq) order — the order a plain sort of the same events produces.
// Pushes respect the engine's scheduling contract (never earlier than the
// last popped delivery time); the generated times mix same-instant ties,
// dense clusters, and far-future jumps. It runs once per scheduler
// configuration in queueConfigs.
func TestQueueMatchesNaiveSort(t *testing.T) {
	for name, mk := range queueConfigs() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				q := mk()
				rng := rand.New(rand.NewSource(seed))
				total := 1 + rng.Intn(700)

				var pending []event // naive mirror of the queue's contents
				floor := clock.Real(0)
				popCheck := func() {
					min := 0
					for i := range pending {
						if eventLess(&pending[i], &pending[min]) {
							min = i
						}
					}
					want := pending[min]
					pending = append(pending[:min], pending[min+1:]...)
					got := q.pop()
					if got.seq != want.seq {
						t.Fatalf("seed %d: pop returned seq %d (t=%v %v), naive min is seq %d (t=%v %v)",
							seed, got.seq, got.msg.DeliverAt, got.msg.Kind,
							want.seq, want.msg.DeliverAt, want.msg.Kind)
					}
					if got.msg.DeliverAt != want.msg.DeliverAt || got.msg.Kind != want.msg.Kind {
						t.Fatalf("seed %d: seq %d popped with corrupted contents (t=%v %v, want t=%v %v)",
							seed, got.seq, got.msg.DeliverAt, got.msg.Kind,
							want.msg.DeliverAt, want.msg.Kind)
					}
					floor = got.msg.DeliverAt
				}

				pushed := 0
				for pushed < total {
					if len(pending) > 0 && rng.Intn(3) == 0 {
						popCheck()
						continue
					}
					ev := genEventAfter(rng, floor, uint64(pushed))
					q.push(&ev.msg, ev.seq)
					pending = append(pending, ev)
					pushed++
				}

				// Drain what is left and compare the full pop sequence against a
				// sorted copy in one shot.
				ref := make([]event, len(pending))
				copy(ref, pending)
				sort.Slice(ref, func(i, j int) bool { return eventLess(&ref[i], &ref[j]) })
				for _, want := range ref {
					if got := q.pop(); got.seq != want.seq {
						t.Fatalf("seed %d: drain order diverges from naive sort: got seq %d, want %d",
							seed, got.seq, want.seq)
					}
				}
				if q.heap.len() != 0 {
					t.Fatalf("seed %d: queue not empty after drain", seed)
				}
			}
		})
	}
}

// queueConfigs names the scheduler configurations TestQueueMatchesNaiveSort
// runs: an empty scheduler that grows its stores as it goes, and one whose
// heap and header store are pre-sized the way NewEngine sizes them.
func queueConfigs() map[string]func() *sched {
	return map[string]func() *sched{
		"heap": func() *sched { return &sched{} },
		"presized": func() *sched {
			s := &sched{}
			s.grow(1024, 1024)
			return s
		},
	}
}

// genEventAfter builds a random event delivered at or after floor — the
// engine's scheduling contract (a Receive only schedules at or after the
// current time). The offset distribution deliberately mixes exact ties
// (timer vs ordinary tie-breaks), sub-width jitter, cluster-scale offsets,
// and far-future jumps many windows out.
func genEventAfter(rng *rand.Rand, floor clock.Real, seq uint64) event {
	kinds := [...]Kind{KindOrdinary, KindStart, KindTimer}
	var off clock.Real
	switch rng.Intn(8) {
	case 0: // exact tie with the last popped delivery
	case 1, 2, 3: // within-cluster jitter
		off = clock.Real(rng.Float64() * 1e-3)
	case 4, 5: // one delay window ahead
		off = clock.Real(1e-2 + rng.Float64()*2e-3)
	case 6: // several windows ahead
		off = clock.Real(rng.Float64() * 0.3)
	default: // next round / rejoin distance
		off = clock.Real(1 + rng.Float64()*10)
	}
	return event{
		msg: Message{
			Kind:      kinds[rng.Intn(len(kinds))],
			From:      ProcID(rng.Intn(4)),
			To:        ProcID(rng.Intn(4)),
			DeliverAt: floor + off,
		},
		seq: seq,
	}
}

// TestQueuePopReleasesPayload checks the header hygiene: the header a pop
// vacates must not pin the message payload.
func TestQueuePopReleasesPayload(t *testing.T) {
	s := &sched{}
	s.push(&Message{Kind: KindOrdinary, Payload: "x", DeliverAt: 1}, 0)
	s.push(&Message{Kind: KindOrdinary, Payload: "y", DeliverAt: 2}, 1)
	if s.heap.len() != 2 {
		t.Fatalf("heap holds %d entries, want 2", s.heap.len())
	}
	s.pop()
	s.pop()
	for i, h := range s.hdrs {
		if h.payload != nil {
			t.Fatalf("header %d still holds payload %v after pop", i, h.payload)
		}
	}
}

// TestSlabReleasesPayload checks the header store across recycling: singles
// (STARTs, TIMERs) and fan-outs whose copies share one header, pushed
// between pops so that freed headers are reused, must leave no header
// pinning a payload after the drain, and every header back on the free list.
func TestSlabReleasesPayload(t *testing.T) {
	s := &sched{}
	seq := uint64(0)
	for i := 0; i < 10; i++ {
		at := clock.Real(i) * 1e-3
		s.push(&Message{Kind: KindTimer, Payload: "x", DeliverAt: at}, seq)
		seq++
		copies := make([]entry, 3)
		for c := range copies {
			copies[c] = entry{at: float64(at) + float64(c)*1e-4, key: packKey(KindOrdinary, seq), to: int32(c)}
			seq++
		}
		s.pushCopies(0, at, "z", copies)
		s.pop()
		s.pop()
	}
	for s.heap.len() > 0 {
		s.pop()
	}
	for i := range s.hdrs {
		if s.hdrs[i].payload != nil {
			t.Fatalf("header %d still holds payload %v after drain", i, s.hdrs[i].payload)
		}
	}
	if len(s.hdrFree) != len(s.hdrs) {
		t.Fatalf("%d of %d headers still held after the drain", len(s.hdrs)-len(s.hdrFree), len(s.hdrs))
	}
}

// TestQueueGrowPreservesContents checks that pre-sizing the stores keeps
// already-queued events intact.
func TestQueueGrowPreservesContents(t *testing.T) {
	s := &sched{}
	s.push(&Message{Kind: KindOrdinary, Payload: "late", DeliverAt: 2}, 0)
	s.push(&Message{Kind: KindTimer, Payload: "early", DeliverAt: 1}, 1)
	s.grow(64, 64)
	if cap(s.hdrs) < 64 || cap(s.heap.items) < 64 {
		t.Fatalf("cap = headers %d, heap %d after grow(64)", cap(s.hdrs), cap(s.heap.items))
	}
	if ev := s.pop(); ev.seq != 1 || ev.msg.Payload != "early" || ev.msg.Kind != KindTimer {
		t.Fatalf("pop after grow returned %+v, want seq 1 / early / TIMER", ev)
	}
	if ev := s.pop(); ev.seq != 0 || ev.msg.Payload != "late" {
		t.Fatalf("pop after grow returned %+v, want seq 0 / late", ev)
	}
}

// FuzzQueueOrder feeds the scheduler degenerate and adversarial inputs —
// fan-outs whose copies land over a delay span [δ−ε, δ+ε] that may be zero,
// denormal, huge, negative, NaN or infinite, mixed under one header with
// single messages, and times before the last pop, NaN and ±Inf — and checks
// the full pop contract and the pending view against a naive sort (see
// runSchedScript): the scheduler must never reorder, drop, or duplicate an
// event.
func FuzzQueueOrder(f *testing.F) {
	f.Add(1e-2, 1e-3, int64(1), uint16(50))
	f.Add(0.0, 0.0, int64(2), uint16(100)) // every copy of a fan-out on one instant
	f.Add(math.NaN(), math.Inf(1), int64(3), uint16(30))
	f.Add(-5.0, math.MaxFloat64, int64(4), uint16(80))
	f.Add(5e-324, 1e300, int64(5), uint16(60))
	f.Add(1e-2, 1e-3, int64(6), uint16(1500))
	f.Add(1e-2, 1e-3, int64(7), uint16(1500))
	f.Add(1e-2, 1e-2, int64(8), uint16(2000)) // δ = ε: copies from the send instant on
	f.Add(3e-3, 1e-3, int64(9), uint16(2000))
	f.Fuzz(func(t *testing.T, delta, eps float64, seed int64, count uint16) {
		runSchedScript(t, schedScript{delta: delta, eps: eps, seed: seed, ops: int(count) % 2048})
	})
}

// schedScript is one randomized scheduler workload: ops operations, with
// fan-out copies landing over the delay span [δ−ε, δ+ε] half the time.
type schedScript struct {
	delta, eps float64
	seed       int64
	ops        int
}

// canonAt is the time the scheduler orders a delivery by: NaN has no place
// in a total order and is filed as +Inf (see sched.file).
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
// pushCopies and pop, mirrored by a naive list of fully materialized
// events. Every pop must return the mirror's minimum under eventLess — a
// fan-out copy surfaces exactly where the same message sent alone would —
// and forEachPending must yield exactly one message per mirrored event, at
// random points and before and after the final drain. Pushes mostly respect
// the engine's contract (no earlier than the last pop) but also land before
// it, at NaN and at ±Inf, which the scheduler must order all the same.
func runSchedScript(t *testing.T, sc schedScript) {
	t.Helper()
	s := &sched{}
	rng := rand.New(rand.NewSource(sc.seed))
	popMod := 2 + rng.Intn(7)

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
			return floor - clock.Real(rng.Float64()*2e-2) // before the last pop
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
		if seen != len(pending) || s.heap.len() != len(pending) {
			t.Fatalf("pending view yields %d messages, heap holds %d, for %d pending copies (%+v)", seen, s.heap.len(), len(pending), sc)
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
		if rng.Intn(4) == 0 {
			// One fan-out: the surviving copies, keyed base | recipient
			// as Engine.fanOut keys them, filed under one header.
			n := 1 + rng.Intn(12)
			var ents []entry
			seq = (seq + 15) &^ 15
			base := seq
			for q := 0; q < n; q++ {
				at := genEventAfter(rng, floor, 0).msg.DeliverAt
				if rng.Intn(2) == 0 {
					at = floor + clock.Real(sc.delta-sc.eps+2*sc.eps*rng.Float64())
				}
				at = oddTime(at)
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
	}

	viewCheck()
	for len(pending) > 0 {
		popCheck()
	}
	if s.heap.len() != 0 {
		t.Fatalf("queue not empty after drain (%+v)", sc)
	}
	if len(s.hdrFree) != len(s.hdrs) {
		t.Fatalf("%d of %d fan-out headers still held after drain (%+v)", len(s.hdrs)-len(s.hdrFree), len(s.hdrs), sc)
	}
	viewCheck()
}

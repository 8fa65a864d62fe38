package sim

import (
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
	en := s.popEntry()
	ev := event{seq: en.key &^ entryTimerBit}
	s.take(en, &ev.msg)
	return ev
}

// queueConfigs enumerates the scheduler configurations that must agree: the
// heap alone, an auto sched (which switches the calendar on mid-run when the
// population crosses the activation threshold), a calendar active from the
// start, and calendars whose declared delay span wildly mismatches the
// generated traffic (a ring that reaches nothing, so every event crosses the
// heap, and a single slot that holds the whole run).
func queueConfigs() map[string]func() *sched {
	mk := func(mode schedMode, hint int, delta, eps float64) func() *sched {
		return func() *sched {
			s := &sched{}
			s.init(mode, hint, delta, eps)
			return s
		}
	}
	return map[string]func() *sched{
		"heap":     mk(schedHeap, 0, 1e-2, 1e-3),
		"auto":     mk(schedAuto, 0, 1e-2, 1e-3),
		"calendar": mk(schedCalendar, 2048, 1e-2, 1e-3),
		// Tiny declared span: everything lies beyond the ring and reaches
		// the window through the heap, one slot per instant.
		"calendar-narrow": mk(schedCalendar, 0, 1e-9, 0),
		// Huge declared span: the whole run lands in one slot, and what is
		// pushed after it opens is filed for the open slot.
		"calendar-wide": mk(schedCalendar, 0, 1e3, 10),
	}
}

// TestQueueMatchesNaiveSort cross-checks every scheduler implementation
// against a naive reference: under random push/pop interleavings, every pop
// must return exactly the minimum of the outstanding events in (DeliverAt,
// non-TIMER first, seq) order — the order a plain sort of the same events
// produces. Pushes respect the engine's scheduling contract (never earlier
// than the last popped delivery time); the generated times mix same-instant
// ties, dense clusters, and far-future jumps so the calendar's slot
// rotation and heap paths run constantly.
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

				// Drain what is left and compare the full pop sequence
				// against a sorted copy in one shot.
				ref := make([]event, len(pending))
				copy(ref, pending)
				sort.Slice(ref, func(i, j int) bool { return eventLess(&ref[i], &ref[j]) })
				for _, want := range ref {
					if got := q.pop(); got.seq != want.seq {
						t.Fatalf("seed %d: drain order diverges from naive sort: got seq %d, want %d",
							seed, got.seq, want.seq)
					}
				}
				if q.len() != 0 {
					t.Fatalf("seed %d: queue not empty after drain", seed)
				}
			}
		})
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
	case 6: // several windows ahead (overflow territory)
		off = clock.Real(rng.Float64() * 0.3)
	default: // next round / rejoin distance (deep overflow)
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

// TestQueuePopReleasesPayload checks the header hygiene with the calendar
// off: the header a pop vacates must not pin the message payload.
func TestQueuePopReleasesPayload(t *testing.T) {
	s := &sched{}
	s.init(schedHeap, 0, 1e-2, 1e-3)
	s.push(&Message{Kind: KindOrdinary, Payload: "x", DeliverAt: 1}, 0)
	s.push(&Message{Kind: KindOrdinary, Payload: "y", DeliverAt: 2}, 1)
	if s.calOn || s.heap.len() != 2 {
		t.Fatalf("schedHeap: calOn=%v heap=%d, want both entries in the heap", s.calOn, s.heap.len())
	}
	s.pop()
	s.pop()
	for i, h := range s.hdrs {
		if h.payload != nil {
			t.Fatalf("header %d still holds payload %v after pop", i, h.payload)
		}
	}
}

// TestQueueGrowPreservesContents checks that pre-sizing the stores keeps
// already-queued events intact.
func TestQueueGrowPreservesContents(t *testing.T) {
	s := &sched{}
	s.init(schedHeap, 0, 1e-2, 1e-3)
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

package sim

import (
	"math"

	"repro/internal/clock"
)

// This file implements the scheduler — the global message buffer of §2.2
// with the total delivery order of §2.3. What the copies of a buffered
// message share — one copy for a START or TIMER, one per recipient of a
// fan-out — sits in a header (msgHdr), and a 24-byte pointer-free entry per
// copy — the full sort key, the header, and the recipient — is what the
// queue moves. The store serves two queues:
//
//   - The time-major engine's: a 4-ary min-heap of entries (entryHeap) over
//     every pending copy, START and TIMER. It is the only queue that must
//     serve arbitrary delays, the adversary, timelines and per-delivery
//     observers in global time order.
//   - A windowed partition's (shard.go): its STARTs and TIMERs on a heap of
//     their own (partition.timers). A fan-out there is no entry until it is
//     due: its row holds its copies' delivery times, and at each lookahead
//     window the partition gathers a process's due copies from those rows,
//     next to its due STARTs and TIMERs, into its window array; this heap
//     then holds only the acting process's in-window timers.
//
// Ordering is the same relation everywhere. entryLess is the total order
// (DeliverAt, non-TIMER first, seq) — the tie-break packs into a single
// uint64 with the TIMER flag above the sequence bits — so the pop sequence,
// and therefore every golden experiment table, is independent of heap shape
// and of the engine; TestQueueMatchesNaiveSort and FuzzQueueOrder hold the
// heap to a naive sort.

// entryTimerBit flags TIMER messages in an entry key; it sits above the
// sequence bits so that at equal delivery times non-TIMER messages order
// first — execution property 4 of §2.3 ("messages that arrive at the same
// time as a timer is due to go off get in just under the wire") — and
// insertion order breaks the remaining ties.
const entryTimerBit = uint64(1) << 63

// msgHdr is what the undelivered copies of one buffered message share: one
// copy for a START or TIMER, one per routed recipient of a fan-out on the
// time-major engine (a partition keeps a fan-out as a bcast row, shard.go).
// A copy is fully determined when it is sent (Engine.fanOut samples, retimes
// and routes it then), so delivering one is pure Message assembly from its
// entry and this header: no RNG draw, no channel state, no retiming at pop
// time. Headers are recycled through a free stack, and a recycled header
// drops its payload reference.
type msgHdr struct {
	from    ProcID
	sentAt  clock.Real
	payload any
	left    int32 // copies not yet delivered
	kind    Kind
}

// entry is the compact, pointer-free handle to one buffered message copy:
// the full sort key, the header the copy shares, and its recipient.
type entry struct {
	at  float64 // Message.DeliverAt
	key uint64  // TIMER flag | sequence number
	ref int32   // index of the copy's msgHdr
	to  int32   // Message.To
}

// packKey builds an entry key from a message kind and sequence number.
func packKey(kind Kind, seq uint64) uint64 {
	if kind == KindTimer {
		return seq | entryTimerBit
	}
	return seq
}

// entryLess orders a before b by (DeliverAt, non-TIMER first, seq). The
// sequence number makes the order total, so the pop sequence is independent
// of heap shape and arity. It is the single comparator shared by the heap
// and a partition's sort of its due events.
func entryLess(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// entryHeap is a 4-ary min-heap of entries ordered by entryLess. It is
// deliberately not a container/heap.Interface (heap.Push(x any) would box
// every entry into an interface value, one allocation per scheduled
// message); the 4-ary layout halves tree depth versus a binary heap and
// scans each node's children within two cache lines.
type entryHeap struct {
	items []entry
}

func (q *entryHeap) len() int { return len(q.items) }

func (q *entryHeap) push(en entry) {
	q.items = append(q.items, en)
	i := len(q.items) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(&q.items[i], &q.items[p]) {
			break
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

func (q *entryHeap) peek() *entry {
	if len(q.items) == 0 {
		return nil
	}
	return &q.items[0]
}

func (q *entryHeap) pop() entry {
	items := q.items
	min := items[0]
	n := len(items) - 1
	items[0] = items[n]
	items = items[:n]
	q.items = items

	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := i
		end := first + 4
		if end > n {
			end = n
		}
		for c := first; c < end; c++ {
			if entryLess(&items[c], &items[best]) {
				best = c
			}
		}
		if best == i {
			break
		}
		items[i], items[best] = items[best], items[i]
		i = best
	}
	return min
}

// sched is what both engines keep of the buffer: the heap, the headers and
// the high-water mark of pending events. On the time-major engine the heap
// holds every pending entry; on a partition, the acting process's in-window
// timers, and the partition holds the rest (shard.go).
type sched struct {
	heap    entryHeap
	hdrs    []msgHdr // messages with copies still pending, and recycled slots
	hdrFree []int32
	peak    int // high-water mark of buffered events
}

// grow pre-sizes the backing stores: the heap for events entries and the
// header store for msgs buffered messages.
func (s *sched) grow(events, msgs int) {
	s.hdrs = withCap(s.hdrs, msgs)
	s.hdrFree = withCap(s.hdrFree, msgs)
	s.heap.items = withCap(s.heap.items, events)
}

// withCap returns s with room for c elements — exactly c if it had to move.
func withCap[T any](s []T, c int) []T {
	if cap(s) >= c {
		return s
	}
	return append(make([]T, 0, c), s...)
}

// single makes the entry of a message with a single copy — a START or a
// TIMER — under sequence number seq, with a header of its own.
func (s *sched) single(m *Message, seq uint64) entry {
	h := s.newHdr(m.From, m.SentAt, m.Payload, m.Kind)
	s.hdrs[h].left = 1
	return entry{at: float64(m.DeliverAt), key: packKey(m.Kind, seq), ref: h, to: int32(m.To)}
}

// push files a message with a single copy under sequence number seq.
func (s *sched) push(m *Message, seq uint64) { s.file(s.single(m, seq)) }

// file queues one entry on the heap. A NaN delivery time has no place in a
// total order; it is filed as +Inf (never delivered before a finite
// horizon).
func (s *sched) file(en entry) {
	if en.at != en.at {
		en.at = math.Inf(1)
	}
	s.heap.push(en)
	s.peak = max(s.peak, s.heap.len())
}

// pushCopies files copies of one ordinary message under one new header: ents
// carry each copy's delivery time, key and recipient. A fan-out on the
// time-major engine files its copies here (Engine.fanOut).
func (s *sched) pushCopies(from ProcID, sentAt clock.Real, payload any, ents []entry) {
	h := s.newHdr(from, sentAt, payload, KindOrdinary)
	s.setLeft(h, int32(len(ents)))
	for i := range ents {
		ents[i].ref = h
		s.file(ents[i])
	}
}

func (s *sched) newHdr(from ProcID, sentAt clock.Real, payload any, kind Kind) int32 {
	hdr := msgHdr{from: from, sentAt: sentAt, payload: payload, kind: kind}
	if n := len(s.hdrFree); n > 0 {
		h := s.hdrFree[n-1]
		s.hdrFree = s.hdrFree[:n-1]
		s.hdrs[h] = hdr
		return h
	}
	s.hdrs = append(s.hdrs, hdr)
	return int32(len(s.hdrs) - 1)
}

// setLeft records how many copies header h serves; a header that serves none
// is recycled at once.
func (s *sched) setLeft(h, left int32) {
	s.hdrs[h].left = left
	if left == 0 {
		s.hdrs[h].payload = nil
		s.hdrFree = append(s.hdrFree, h)
	}
}

// load writes the message en stands for into out without consuming it. Field
// by field: a composite-literal store compiles to a zero fill, partial stores
// and a 16-byte reload, which stalls on store forwarding behind the previous
// delivery's stores: pprof put a quarter of a flat n = 1009, k = 2 run's CPU
// on that one statement, against 7 % for the field stores.
func (s *sched) load(en *entry, out *Message) {
	h := &s.hdrs[en.ref]
	out.From, out.To, out.Kind = h.from, ProcID(en.to), h.kind
	out.Payload, out.SentAt, out.DeliverAt = h.payload, h.sentAt, clock.Real(en.at)
}

// peekTime returns the delivery time of the minimum buffered event, or
// ok == false when the queue is empty.
func (s *sched) peekTime() (clock.Real, bool) {
	if top := s.heap.peek(); top != nil {
		return clock.Real(top.at), true
	}
	return 0, false
}

// take writes the message of a popped entry into out and releases its share
// of the header.
func (s *sched) take(en entry, out *Message) {
	s.load(&en, out)
	if h := &s.hdrs[en.ref]; h.left > 1 {
		h.left--
	} else {
		s.setLeft(en.ref, 0)
	}
}

// forEachPending calls fn for every buffered message until fn returns
// false: exactly one per pending entry. Iteration order is unspecified.
// Read-only view for the adversary seam; never on the hot path.
func (s *sched) forEachPending(fn func(m *Message) bool) {
	var m Message
	for i := range s.heap.items {
		s.load(&s.heap.items[i], &m)
		if !fn(&m) {
			return
		}
	}
}

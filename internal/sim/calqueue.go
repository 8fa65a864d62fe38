package sim

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"

	"repro/internal/clock"
)

// This file implements the scheduler — the global message buffer of §2.2
// with the total delivery order of §2.3. There is one event store: every
// buffered Message sits in a slab (msgSlab), and a 24-byte pointer-free
// entry — the full sort key plus the slab index — sits in a 4-ary min-heap
// (entryHeap). That alone is a complete scheduler ("heap mode"). The
// calendar (calQueue) is an optional front over the same store: a bucketed
// window covering the near-future event cluster, into which an entry is
// filed when it fits and out of which pops drain bucket by bucket, while
// everything beyond the window (timers, rejoin wake-ups) stays in the heap
// until the window rotates onto it. sched picks whether the front is on
// from the workload shape.
//
// Motivation for the front: the Lundelius–Lynch algorithm is
// round-structured — every resynchronization round all n processes broadcast
// to all n peers, so n² near-simultaneous messages land inside one
// bounded-delay window [δ−ε, δ+ε]. A comparison heap pays O(log m) sift
// work (m ≈ n² in flight) per push and per pop in exactly that regime. A
// calendar keyed by delivery time makes both amortized O(1): a push appends
// to the bucket floor((t−start)/width) and a pop drains the current bucket
// in order, advancing bucket by bucket through the window.
//
// Because the queue structures move entries, not Messages, bucket appends,
// sorts, sifts and heap→calendar migrations carry no GC write barriers and
// the garbage collector never scans them. Payload-release hygiene
// concentrates in one place: the slab zeroes a slot the moment its message
// is taken.
//
// Ordering is the same relation everywhere. entryLess is the total order
// (DeliverAt, non-TIMER first, seq) — the tie-break packs into a single
// uint64 with the TIMER flag above the sequence bits. Buckets cover disjoint
// half-open time ranges and every heap entry is later than every bucketed
// one, so concatenating per-bucket order and then heap order gives the
// global order, and within a bucket entries are sorted by the same relation
// (total, since seq is unique, so sorting is deterministic). Every pop
// sequence, and therefore every golden experiment table, is independent of
// whether the calendar is on; the differential tests in queue_test.go and
// the FuzzBucketWidth target enforce this.

// Scheduler selects the event-queue implementation.
type Scheduler uint8

const (
	// SchedulerAuto (the default) starts with the calendar off and switches
	// it on when the number of buffered events crosses calActivateLen —
	// small systems never pay calendar overhead, large broadcast storms
	// never pay per-event sift work. A Config.EventHint of at least
	// calActivateLen switches it on from the first event.
	SchedulerAuto Scheduler = iota
	// SchedulerHeap keeps the calendar off for the whole run; benchmarks
	// use it as the baseline.
	SchedulerHeap
	// SchedulerCalendar switches the calendar on from the first event.
	SchedulerCalendar
)

const (
	// calActivateLen is the buffered-event count at which SchedulerAuto
	// switches the calendar on: below it (n ≲ 22 full-mesh systems) heap
	// sift depth is short and cache-resident, above it the O(log m) sift
	// work dominates the queue cost.
	calActivateLen = 512
	// calMaxBuckets bounds the bucket array (memory: 24 B of slice header
	// plus one occupancy bit plus calArenaFill pre-carved entries per
	// bucket).
	calMaxBuckets = 32768
	// calTargetFill is the per-bucket population the width tuner steers
	// toward. The bucket count is sized for ~1–3 events per bucket over
	// the active part of a window (pop order inside a bucket needs a sort,
	// so near-singleton buckets make pops O(1)); the tuner shrinks the
	// width only when buckets run well past that.
	calTargetFill = 4
	// calArenaFill is the per-bucket capacity pre-carved out of the shared
	// arena allocation at activation; buckets busier than this grow
	// individually. Sized above the typical active-span fill so steady
	// windows allocate nothing.
	calArenaFill = 4
	// calNearFactor classifies a spilled event as "near future" when it
	// lies within this many declared delay windows of the current window
	// start. Near spills are traffic the window should have covered (they
	// drive the horizon signal of the width tuner); anything further —
	// next-round timers a full period away, rejoin wake-ups — belongs in
	// the heap and must not stretch the window.
	calNearFactor = 16
	// calDenseFill is the average per-bucket fill above which a finished
	// window counts as message-dense, disqualifying its near spills from
	// raising the horizon floor (see sched.rotate). Sized a few multiples
	// above calTargetFill so ordinary round windows (which run overfull by
	// design once the floor is set) are classified dense, while timer-drain
	// windows (a handful of entries per bucket at most) stay sparse.
	calDenseFill = 4 * calTargetFill
	// calContLead, in declared delay windows, is how far past a window's
	// end a spill still counts as contiguous with the window's own traffic
	// for the horizon ratchet. Events pushed during a drain land at most
	// about one delay window past the drain position (a fan-out's delivery
	// lead), so a spill further out than span + calContLead·spanHint is a
	// separate future cluster across a dead gap — the rotation machinery
	// jumps to it and the heap scan sizes its window; stretching the
	// current window across the gap only dilutes bucket resolution.
	calContLead = 2
	// calMinWidth floors the bucket width so degenerate tuning inputs
	// (ε = δ = 0, fuzzed NaN/Inf spans) cannot collapse the window to a
	// zero- or negative-width bucket.
	calMinWidth = 1e-12
)

// entryTimerBit flags TIMER messages in an entry key; it sits above the
// sequence bits so that at equal delivery times non-TIMER messages order
// first — execution property 4 of §2.3 ("messages that arrive at the same
// time as a timer is due to go off get in just under the wire") — and
// insertion order breaks the remaining ties.
const entryTimerBit = uint64(1) << 63

// bcopy is one unmaterialized copy of a lazy broadcast: its delivery time,
// its recipient, and its tie-break rank. In counter-sequence mode the rank is
// the copy's offset from the record's base sequence number (the position the
// copy holds among the broadcast's delivered copies, in pid order — exactly
// the sequence number the eager path would have assigned); in deterministic-
// sequence mode (sharded execution) it is the recipient pid, which the
// packed key ORs into its low bits.
type bcopy struct {
	at   float64 // Message.DeliverAt
	pid  int32
	rank int32
}

// bcastRec is one logical broadcast whose copies have not all been delivered
// yet. The queue holds only the record's head — the earliest unmaterialized
// copy, in the record's (at, rank) order — and popping the head pushes the
// next one, so a broadcast contributes exactly one queue entry however many
// copies remain. Copies are fully determined at broadcast time (the delivery
// pipeline runs eagerly — see Engine.Broadcast), so materialization is pure
// Message assembly: no RNG draw, no channel state, no pipeline stage runs at
// pop time, which is what keeps lazy executions byte-identical to eager ones.
type bcastRec struct {
	copies  []bcopy
	next    int32 // copies[next:] are unmaterialized; copies[next] is the head
	det     bool  // deterministic (packed) sequence numbers: seq = seqBase | pid
	adopted bool  // copies came from a cross-shard chunk; return to the pool
	from    ProcID
	seqBase uint64
	sentAt  clock.Real
	payload any
}

// seqAt returns the sequence number of one copy (see bcopy on rank).
func (r *bcastRec) seqAt(c bcopy) uint64 {
	if r.det {
		return r.seqBase | uint64(c.rank)
	}
	return r.seqBase + uint64(c.rank)
}

// bcastChunk is the cross-shard transfer form of a lazy broadcast: the
// per-destination-shard slice of a fan-out, built by the sending shard at
// broadcast time and adopted into the destination's record store at the next
// window barrier. Copies are already sorted by (at, rank).
type bcastChunk struct {
	copies  []bcopy
	det     bool
	from    ProcID
	seqBase uint64
	sentAt  clock.Real
	payload any
}

// bcastStore holds the live broadcast records. Records are recycled through
// a free stack, and a recycled record keeps its copies capacity, so the
// steady state allocates nothing per broadcast.
type bcastStore struct {
	recs []bcastRec
	free []int32
}

func (st *bcastStore) alloc() int32 {
	if n := len(st.free); n > 0 {
		b := st.free[n-1]
		st.free = st.free[:n-1]
		return b
	}
	st.recs = append(st.recs, bcastRec{})
	return int32(len(st.recs) - 1)
}

// sortCopies orders a record's copies by (at, rank) — the projection of the
// queue's total order (DeliverAt, seq) onto one broadcast's copies, so
// head-chaining releases them in exactly the order the eager path would have
// popped them. The comparator is total (ranks are unique within a record),
// so the unstable sort is deterministic.
func sortCopies(cs []bcopy) {
	slices.SortFunc(cs, func(a, b bcopy) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		return int(a.rank) - int(b.rank)
	})
}

// entry is the compact, pointer-free handle to one buffered message: the
// full sort key plus where the Message lives — a slab slot, or, for the
// queued head of a lazy broadcast, the record that will assemble it.
type entry struct {
	at  float64 // Message.DeliverAt
	key uint64  // TIMER flag | sequence number
	ref int32   // msgSlab slot if ≥ 0; lazy broadcast record −ref−1 if < 0
	_   int32
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
// of heap shape, arity and bucket layout. It is the single comparator shared
// by the heap and the calendar's bucket sort.
func entryLess(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// entryCmp adapts entryLess for slices.SortFunc. The order is total (seq is
// unique per engine), so no two distinct entries compare equal.
func entryCmp(a, b entry) int {
	if entryLess(&a, &b) {
		return -1
	}
	return 1
}

// msgSlab stores the buffered Message values the entries reference. Slots
// are recycled through a free stack, so the steady-state engine schedules
// timers and messages with no per-event allocation; take zeroes the vacated
// slot so no stale Payload reference outlives its message.
type msgSlab struct {
	msgs []Message
	free []int32
}

func (s *msgSlab) grow(c int) {
	if cap(s.msgs) < c {
		msgs := make([]Message, len(s.msgs), c)
		copy(msgs, s.msgs)
		s.msgs = msgs
	}
	if cap(s.free) < c {
		free := make([]int32, len(s.free), c)
		copy(free, s.free)
		s.free = free
	}
}

func (s *msgSlab) put(m *Message) int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.msgs[i] = *m
		return i
	}
	s.msgs = append(s.msgs, *m)
	return int32(len(s.msgs) - 1)
}

func (s *msgSlab) take(i int32, out *Message) {
	*out = s.msgs[i]
	s.msgs[i] = Message{}
	s.free = append(s.free, i)
}

// entryHeap is a 4-ary min-heap of entries ordered by entryLess: the whole
// queue while the calendar is off, the store for events beyond the calendar
// window while it is on. It is deliberately not a container/heap.Interface
// (heap.Push(x any) would box every entry into an interface value, one
// allocation per scheduled message); the 4-ary layout halves tree depth
// versus a binary heap and scans each node's children within two cache
// lines.
type entryHeap struct {
	items []entry
}

func (q *entryHeap) len() int { return len(q.items) }

func (q *entryHeap) grow(c int) {
	if cap(q.items) < c {
		items := make([]entry, len(q.items), c)
		copy(items, q.items)
		q.items = items
	}
}

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

// calQueue is the calendar: len(buckets) disjoint half-open time ranges
// [start + i·width, start + (i+1)·width) covering one window of the
// execution. Events beyond the window are the caller's (sched's) problem.
// Buckets are filled append-only and sorted lazily when the drain position
// first enters them; a push into the already-sorted live bucket does an
// ordered insert into its unpopped tail. Empty stretches are skipped
// through an occupancy bitmap.
type calQueue struct {
	buckets  [][]entry
	occ      []uint64   // occupancy bitmap, one bit per bucket
	start    clock.Real // lower edge of bucket 0 for the current window
	width    float64    // bucket width in real-time seconds
	invWidth float64    // 1/width (a multiply per push instead of a divide)
	cur      int        // bucket currently being drained
	pos      int        // popped prefix of buckets[cur]
	sorted   bool       // buckets[cur][pos:] is in entryLess order
	count    int        // unpopped entries held across all buckets

	// Window statistics feeding the width tuner (see sched.rotate).
	inserted  int     // entries accepted into this window
	used      int     // buckets that went nonempty this window
	maxDtNear float64 // furthest near-future spill past the window end
	maxDtCont float64 // furthest near spill contiguous with the window (≤ contLimit)
	contLimit float64 // contiguity band: span + contLead (recomputed per reset)
	contLead  float64 // calContLead · spanHint (set once at activation)
	nearLimit float64 // near/far spill boundary (calNearFactor · span)
	reqWidth  float64 // sticky horizon floor: max contiguous spill/buckets so far
}

// reset rewinds the calendar to a fresh window anchored at start. All
// buckets must already be drained (count == 0); their backing arrays are
// kept for reuse, so a steady-state rotation allocates nothing.
func (c *calQueue) reset(start clock.Real, width float64) {
	if c.cur < len(c.buckets) {
		c.buckets[c.cur] = c.buckets[c.cur][:0]
	}
	clear(c.occ)
	c.start = start
	c.width = width
	c.invWidth = 1 / width
	c.cur, c.pos, c.sorted = 0, 0, false
	c.inserted, c.used, c.maxDtNear, c.maxDtCont = 0, 0, 0, 0
	c.contLimit = width*float64(len(c.buckets)) + c.contLead
}

// tryPush files en into its bucket, or reports false when the event lies
// beyond the current window (the caller leaves it in the heap). Events are
// never earlier than the drain position: the engine only schedules at or
// after the current time, which lives in bucket cur.
func (c *calQueue) tryPush(en entry) bool {
	dt := en.at - float64(c.start)
	f := dt * c.invWidth
	if !(f < float64(len(c.buckets))) { // also catches NaN defensively
		if dt < c.nearLimit {
			if dt > c.maxDtNear {
				c.maxDtNear = dt
			}
			if dt <= c.contLimit && dt > c.maxDtCont {
				c.maxDtCont = dt
			}
		}
		return false
	}
	i := int(f)
	if i < c.cur {
		// Float-rounding guard: a delivery at exactly the drain position's
		// time must stay poppable. In-bucket ordering keeps it correct.
		i = c.cur
	}
	b := c.buckets[i]
	if i == c.cur && c.sorted {
		// The live bucket is already sorted and partially drained: insert
		// into its unpopped tail. This only happens for deliveries scheduled
		// within the width of the bucket being drained (e.g. δ = ε), so the
		// shifted tail is short.
		b = append(b, entry{})
		j := len(b) - 1
		for j > c.pos && entryLess(&en, &b[j-1]) {
			b[j] = b[j-1]
			j--
		}
		b[j] = en
	} else {
		b = append(b, en)
	}
	c.buckets[i] = b
	c.occ[i>>6] |= 1 << (uint(i) & 63)
	c.count++
	c.inserted++
	return true
}

// peek returns the minimum entry; the caller must ensure count > 0. The
// pointer is valid only until the next push or pop. Advancing into a bucket
// sorts it once; empty stretches between clusters are skipped through the
// occupancy bitmap (64 buckets per word scan), so sparse windows cost
// nearly nothing to cross.
func (c *calQueue) peek() *entry {
	for {
		b := c.buckets[c.cur]
		if c.pos < len(b) {
			if !c.sorted {
				// First entry into this bucket: sort it, and count it for
				// the width tuner's fill estimate (the drain enters each
				// nonempty bucket exactly once per window, so tallying
				// here keeps the stat off the push hot path).
				c.used++
				sortBucket(b[c.pos:])
				c.sorted = true
			}
			return &b[c.pos]
		}
		// Recycle the drained bucket. Entries are pointer-free, so stale
		// slots pin nothing — no scrubbing needed.
		c.buckets[c.cur] = b[:0]
		c.occ[c.cur>>6] &^= 1 << (uint(c.cur) & 63)
		c.cur = c.nextOccupied(c.cur + 1)
		c.pos, c.sorted = 0, false
	}
}

// nextOccupied returns the first bucket index ≥ i with its occupancy bit
// set. The caller guarantees one exists (count > 0).
func (c *calQueue) nextOccupied(i int) int {
	w := i >> 6
	word := c.occ[w] & (^uint64(0) << (uint(i) & 63))
	for word == 0 {
		w++
		word = c.occ[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// pop removes and returns the minimum entry.
func (c *calQueue) pop() entry {
	en := *c.peek()
	c.pos++
	c.count--
	return en
}

// sortBucket orders a bucket's unpopped tail by entryLess. Buckets are
// near-singleton by construction (the width tuner and bucket-count sizing
// steer toward a few entries), so the common cases are handled inline and
// the general sorter only sees the occasional dense spike (e.g. ε = 0
// delays landing a whole fan-out on one instant).
func sortBucket(b []entry) {
	switch {
	case len(b) < 2:
		return
	case len(b) <= 16:
		for i := 1; i < len(b); i++ {
			en := b[i]
			j := i
			for j > 0 && entryLess(&en, &b[j-1]) {
				b[j] = b[j-1]
				j--
			}
			b[j] = en
		}
	default:
		slices.SortFunc(b, entryCmp)
	}
}

// sched is the scheduler the engine talks to. Messages live in the slab and
// their entries in exactly one of two places: a calendar bucket, when the
// calendar is on and the entry fits the current window, or the heap. Every
// heap entry is then strictly later than every bucketed one (the calendar
// window is a prefix of the time line), so the calendar minimum is the global
// minimum whenever the calendar is nonempty, and the heap minimum otherwise.
type sched struct {
	slab      msgSlab    // every buffered Message
	cal       calQueue   // near-future window; dormant while calOn is false
	heap      entryHeap  // everything the calendar window does not hold
	bcasts    bcastStore // lazy broadcast records (heads are in the queue)
	copyPool  [][]bcopy  // recycled bcopy capacity for cross-shard chunks
	scanBuf   []float64  // rotate's heap-scan scratch (reused)
	calOn     bool
	mode      Scheduler
	spanHint  float64 // declared delay window δ+2ε, seeds the bucket width
	eventHint int     // expected peak buffered events (Config.EventHint)
	peak      int     // high-water mark of buffered (structural) events
}

// init records the workload shape. span is the declared one-way delay
// window δ+2ε — the real-time interval one broadcast's fan-out lands in —
// which seeds the bucket width; the tuner refines it from observed traffic
// at every window rotation.
func (s *sched) init(mode Scheduler, hint int, delta, eps float64) {
	s.mode = mode
	s.eventHint = hint
	span := delta + 2*eps
	if !(span > 0) || math.IsInf(span, 1) {
		span = 1e-3
	}
	s.spanHint = span
	if mode == SchedulerCalendar || (mode == SchedulerAuto && hint >= calActivateLen) {
		s.activate()
	}
}

func (s *sched) len() int { return s.cal.count + s.heap.len() }

// grow pre-sizes the backing stores for about c buffered events: the slab,
// and the heap — in full while it is the whole queue, a slice of c (timers
// and rejoin wake-ups, a small fraction of the population) behind the
// calendar.
func (s *sched) grow(c int) {
	s.slab.grow(c)
	if s.calOn {
		c = c/8 + 64
	}
	s.heap.grow(c)
}

func (s *sched) push(ev *event) {
	s.file(entry{
		at:  float64(ev.msg.DeliverAt),
		key: packKey(ev.msg.Kind, ev.seq),
		ref: s.slab.put(&ev.msg),
	})
}

// pushHead enqueues the head copy of broadcast record b — the next entry of
// its (at, rank)-sorted chain. The record owns the message, so the slab
// holds nothing: the entry references the record instead, encoded as a
// negative ref (slab slots are never negative).
func (s *sched) pushHead(b int32) {
	rec := &s.bcasts.recs[b]
	c := rec.copies[rec.next]
	s.file(entry{at: c.at, key: rec.seqAt(c), ref: -(b + 1)})
}

// file queues one entry — into its calendar bucket when the calendar is on
// and the entry fits the window, into the heap otherwise — and, under
// SchedulerAuto, switches the calendar on once the population warrants it.
func (s *sched) file(en entry) {
	if !s.calOn || !s.cal.tryPush(en) {
		s.heap.push(en)
	}
	if l := s.len(); l > s.peak {
		s.peak = l
		// A population reaching the threshold is necessarily a new peak.
		if !s.calOn && l >= calActivateLen && s.mode == SchedulerAuto {
			s.activate()
		}
	}
}

// pushBroadcast files one logical broadcast as a lazy record and enqueues its
// head. at/ok are the delivery pipeline's per-recipient results (the pipeline
// already ran — see Engine.Broadcast); local, when non-nil, filters the
// record to the copies this engine owns (sharded mode; remote copies travel
// as bcastChunks). seqBase/det fix the copies' sequence numbers exactly as
// the eager path would have assigned them.
func (s *sched) pushBroadcast(from ProcID, sentAt clock.Real, payload any, at []clock.Real, ok, local []bool, seqBase uint64, det bool) {
	b := s.bcasts.alloc()
	rec := &s.bcasts.recs[b]
	rec.from, rec.sentAt, rec.payload = from, sentAt, payload
	rec.seqBase, rec.det, rec.next, rec.adopted = seqBase, det, 0, false
	copies := rec.copies[:0]
	if cap(copies) == 0 {
		// The record's previous copies slice was adopted from a cross-shard
		// chunk and donated to the pool on exhaustion (see advanceBcast);
		// draw capacity back out instead of regrowing from nil.
		copies = s.takeCopySlice()
	}
	rank := int32(0)
	for q := range ok {
		if !ok[q] {
			continue
		}
		r := rank
		rank++
		if local != nil && !local[q] {
			continue
		}
		if det {
			r = int32(q)
		}
		copies = append(copies, bcopy{at: float64(at[q]), pid: int32(q), rank: r})
	}
	if len(copies) == 0 {
		rec.payload = nil
		s.bcasts.free = append(s.bcasts.free, b)
		return
	}
	sortCopies(copies)
	rec.copies = copies
	s.pushHead(b)
}

// adoptBroadcast installs a cross-shard broadcast chunk as a local record,
// taking ownership of its (already sorted) copies slice. Called only at
// window barriers, single-threaded. Any copies capacity the recycled record
// already held goes to the copy pool rather than being dropped, and the
// record is marked adopted so exhaustion returns the chunk's capacity
// there too — the pool feeds this shard's own outgoing chunks
// (Engine.chunkRemote), closing the recycle loop across shards.
func (s *sched) adoptBroadcast(ch *bcastChunk) {
	if len(ch.copies) == 0 {
		return
	}
	b := s.bcasts.alloc()
	rec := &s.bcasts.recs[b]
	rec.from, rec.sentAt, rec.payload = ch.from, ch.sentAt, ch.payload
	rec.seqBase, rec.det, rec.next = ch.seqBase, ch.det, 0
	if cap(rec.copies) > 0 {
		s.putCopySlice(rec.copies)
	}
	rec.copies = ch.copies
	rec.adopted = true
	s.pushHead(b)
}

// takeCopySlice pops a recycled bcopy slice (length 0) from the pool, or
// returns nil when the pool is empty. Sharded mode only; each shard touches
// only its own pool during a window drain, and adoption at the barrier is
// single-threaded.
func (s *sched) takeCopySlice() []bcopy {
	if n := len(s.copyPool); n > 0 {
		c := s.copyPool[n-1]
		s.copyPool[n-1] = nil
		s.copyPool = s.copyPool[:n-1]
		return c
	}
	return nil
}

// putCopySlice returns a bcopy slice's capacity to the pool.
func (s *sched) putCopySlice(c []bcopy) {
	if cap(c) == 0 {
		return
	}
	s.copyPool = append(s.copyPool, c[:0])
}

// advanceBcast moves record b's chain past its just-materialized head:
// either the next copy becomes the new head, or the exhausted record is
// recycled (dropping its payload reference).
func (s *sched) advanceBcast(b int32) {
	rec := &s.bcasts.recs[b]
	rec.next++
	if int(rec.next) < len(rec.copies) {
		s.pushHead(b)
		return
	}
	rec.payload = nil
	if rec.adopted {
		// The copies arrived as a cross-shard chunk: hand the capacity to
		// the copy pool, where this shard's outgoing chunks draw from.
		s.putCopySlice(rec.copies)
		rec.copies = nil
		rec.adopted = false
	} else {
		rec.copies = rec.copies[:0]
	}
	s.bcasts.free = append(s.bcasts.free, b)
}

// materializeHead assembles the head copy of record b into out and advances
// the record's chain.
func (s *sched) materializeHead(b int32, out *Message) {
	rec := &s.bcasts.recs[b]
	c := rec.copies[rec.next]
	*out = Message{
		From: rec.from, To: ProcID(c.pid), Kind: KindOrdinary,
		Payload: rec.payload, SentAt: rec.sentAt, DeliverAt: clock.Real(c.at),
	}
	s.advanceBcast(b)
}

// peekTime returns the delivery time of the minimum buffered event, or
// ok == false when the queue is empty.
func (s *sched) peekTime() (clock.Real, bool) {
	if s.cal.count == 0 {
		if s.heap.len() == 0 {
			return 0, false
		}
		if !s.calOn {
			return clock.Real(s.heap.peek().at), true
		}
		s.rotate()
	}
	return clock.Real(s.cal.peek().at), true
}

// popMsg removes the minimum event, writing its message directly into out
// (this is the once-per-delivered-event path). The caller must ensure the
// queue is nonempty.
func (s *sched) popMsg(out *Message) {
	var en entry
	if s.calOn {
		if s.cal.count == 0 {
			s.rotate()
		}
		en = s.cal.pop()
	} else {
		en = s.heap.pop()
	}
	if en.ref < 0 {
		s.materializeHead(-en.ref-1, out)
	} else {
		s.slab.take(en.ref, out)
	}
}

// forEachPending calls fn for every buffered message until fn returns
// false. Iteration order is unspecified. Read-only view for the adversary
// seam; never on the hot path.
func (s *sched) forEachPending(fn func(m *Message) bool) {
	// Lazy-broadcast copies first, synthesized from their records: every
	// copy not yet materialized, including each record's queued head (the
	// head lives in the queue only as a reference to the record, so the
	// view stays exactly one message per pending copy).
	var m Message
	for i := range s.bcasts.recs {
		rec := &s.bcasts.recs[i]
		for j := int(rec.next); j < len(rec.copies); j++ {
			c := rec.copies[j]
			m = Message{
				From: rec.from, To: ProcID(c.pid), Kind: KindOrdinary,
				Payload: rec.payload, SentAt: rec.sentAt, DeliverAt: clock.Real(c.at),
			}
			if !fn(&m) {
				return
			}
		}
	}
	// Everything else is in the slab; free slots are zeroed and skipped by
	// their zero Kind.
	for i := range s.slab.msgs {
		if s.slab.msgs[i].Kind == 0 {
			continue
		}
		if !fn(&s.slab.msgs[i]) {
			return
		}
	}
}

// activate switches the calendar on: it allocates the buckets and opens the
// first window at the earliest buffered event, exactly as a rotation would.
// Messages stay where they are in the slab; only the heap entries that fit
// the window move. The bucket count scales to about twice the expected
// population (hint or current size), clamped to a power of two in
// [256, calMaxBuckets]: a window's events concentrate in its active span (a
// delay window's worth of a horizon that also covers the round's timers), so
// 2× buckets puts the active-span fill near a few entries and pops stay near
// sort-free. The initial width spreads twice the declared delay window
// across the buckets: a round's traffic stretches past one span (senders
// spread over β keep broadcasting while the first fan-outs land), and a
// too-short first window would send the whole opening round through the
// heap before the tuner could react — a cost every fresh engine would pay
// again. Too wide merely leaves the bitmap sparser.
func (s *sched) activate() {
	target := max(s.heap.len(), s.eventHint)
	nb := 256
	for nb < calMaxBuckets && nb < 2*target {
		nb *= 2
	}
	// Carve every bucket's initial capacity out of one pointer-free
	// backing array (the three-index slice caps each bucket at
	// calArenaFill, so an overfull bucket reallocates itself without
	// clobbering its neighbors). One allocation replaces nb small ones,
	// and the steady state appends into recycled capacity.
	s.cal.buckets = make([][]entry, nb)
	s.cal.occ = make([]uint64, nb/64)
	arena := make([]entry, nb*calArenaFill)
	for i := range s.cal.buckets {
		o := i * calArenaFill
		s.cal.buckets[i] = arena[o : o : o+calArenaFill]
	}
	s.cal.nearLimit = calNearFactor * s.spanHint
	s.cal.contLead = calContLead * s.spanHint
	s.calOn = true

	start := 0.0
	if en := s.heap.peek(); en != nil {
		start = en.at
	}
	s.openWindow(start, 2*s.spanHint/float64(nb))
}

// openWindow anchors a fresh calendar window at start and moves into it
// every heap entry that fits (a 24-byte entry move each — slab slots stay
// put). The calendar must be drained.
func (s *sched) openWindow(start, width float64) {
	s.cal.reset(clock.Real(start), sanitizeWidth(width))
	for s.heap.len() > 0 && s.cal.tryPush(*s.heap.peek()) {
		// Stops at the first entry beyond the window; heap order ⇒ so is
		// the rest.
		s.heap.pop()
	}
}

// calDebug (environment variable CALDEBUG, any non-empty value) prints one
// line per window rotation — width, events accepted, buckets used, furthest
// near-future spill, heap population — to stderr. It is the intended way
// to watch the width tuner converge on a new workload shape before
// codifying the expectation in a test (TestCalendarTunerConverges was
// written from exactly this output).
var calDebug = os.Getenv("CALDEBUG") != ""

// rotate advances the calendar to a new window anchored at the earliest
// heap entry, retuning the bucket width from the finished window's observed
// traffic first. Called when the calendar drains while the heap is
// nonempty.
func (s *sched) rotate() {
	c := &s.cal
	if calDebug {
		// Explicitly stderr: rotation diagnostics must never interleave with
		// experiment/golden table output on stdout.
		fmt.Fprintf(os.Stderr, "rotate: width(ns)=%d inserted=%d used=%d maxDtCont(ns)=%d maxDtNear(ns)=%d span(ns)=%d heapLen=%d\n",
			int64(c.width*1e9), c.inserted, c.used, int64(c.maxDtCont*1e9), int64(c.maxDtNear*1e9),
			int64(c.width*float64(len(c.buckets))*1e9), s.heap.len())
	}
	// Width tuning, from two decoupled signals of the finished window:
	//
	//   - resolution: if buckets ran overfull, shrink toward the width
	//     that puts calTargetFill events in a bucket (this signal only
	//     ever shrinks — sparse windows, e.g. timer-only ones, must not
	//     inflate the width);
	//   - horizon: if near-future events spilled past the window end, the
	//     observed delay spread outgrew the window (broadcast fan-outs
	//     landing δ+ε after senders spread over β, staggered or
	//     adversarially lagged traffic) — widen so the furthest of them
	//     fits the next window.
	//
	// The horizon signal wins, and it is sticky: the delay spread of a
	// round is a property of the workload, not of the single window that
	// happened to observe the spill — round-structured traffic alternates
	// message-dense windows (which would vote to shrink) with timer
	// windows whose fan-outs need the full horizon, and letting each
	// window retune in isolation oscillates the width and sends every
	// other round through the heap. An overfull bucket costs a slightly
	// longer sort; a too-short window costs O(log m) heap traffic for
	// whole rounds — so the floor only ever rises. It converges within a
	// rotation or two because it is computed from observed times, not
	// stepped by fixed factors, and stays bounded by nearLimit/buckets.
	//
	// Two refinements, both found by profiling K-exchange sub-rounds at
	// calendar scale (the ROADMAP's "inter-cluster gap" question):
	//
	//   - Only a *sparse* window may raise the floor. A window that was
	//     already message-dense (average fill past calDenseFill) and still
	//     spilled is not looking at an undersized view of one cluster — it
	//     is draining continuous traffic (sub-rounds packed at their
	//     minimum spacing tile into a continuum), where the spill horizon
	//     recedes with the window itself: spill ≈ span + sub-period,
	//     whatever the span. Chasing that target ratchets the width up to
	//     the nearLimit cap, thousands of entries per bucket, and O(tail)
	//     insertion shifts into the live bucket. Round-structured traffic
	//     is unaffected: its floor is set by the sparse timer-drain windows
	//     between clusters, which stay eligible. Measured at n=1009, K=8,
	//     sub-period at its floor: ungated, the width ratchets 2.9µs → 15µs
	//     and climbing by round 4, throughput drops ~1.9× and bucket
	//     regrowth allocates ~10× the bytes.
	//
	//   - Only spills *contiguous* with the window's traffic (maxDtCont,
	//     within calContLead delay windows past the end) set the target.
	//     A spill across a dead gap is a distinct future cluster — e.g.
	//     sub-rounds spaced well apart but still inside nearLimit — and
	//     stretching the window over the gap dilutes every bucket the
	//     actual traffic lands in. Measured at n=1009, K=8, sub-period
	//     P/8 ≈ 125 ms (inside nearLimit ≈ 166 ms): ungated, the sparse
	//     timer windows stretch the span to ≈ 108 ms, fill ≈ 5200 per
	//     bucket, and throughput drops ~1.8×; gated, the span stays at one
	//     cluster and rotation jumps the gap through the heap.
	nb1 := float64(len(c.buckets) - 1)
	sparse := c.inserted <= calDenseFill*c.used
	if wh := c.maxDtCont / nb1; sparse && wh > c.reqWidth {
		c.reqWidth = wh
	}
	// The push-time spill signal only sees traffic that arrived while a
	// window was active. Events that land in the heap wholesale — a
	// far-future cluster the drain is about to jump to — would otherwise
	// teach the tuner one window-length per rotation. One pass over the
	// (unsorted) heap array reads the cluster's near-future spread directly,
	// so the next window covers it in full. The heap is small in
	// steady state (timers, rejoin wake-ups), so the scan is cheap.
	//
	// "Spread" here means the contiguous cluster anchored at the earliest
	// event, not the furthest near-future distance: the heap routinely
	// holds the imminent cluster and the one after it (sub-round timers a
	// sub-period away, still inside nearLimit), and measuring across both
	// would stretch the window over the dead gap between them — the same
	// failure mode the contiguity band guards against on the push path.
	// Chaining sorted gaps ≤ contLead gives the imminent cluster's true
	// extent, whatever its internal shape.
	base := s.heap.peek().at
	s.scanBuf = s.scanBuf[:0]
	for i := range s.heap.items {
		if dt := s.heap.items[i].at - base; dt < c.nearLimit {
			s.scanBuf = append(s.scanBuf, dt)
		}
	}
	slices.Sort(s.scanBuf)
	spread := 0.0
	for _, dt := range s.scanBuf {
		if dt-spread > c.contLead {
			break
		}
		spread = dt
	}
	if wh := spread / nb1; wh > c.reqWidth {
		c.reqWidth = wh
	}
	w := c.width
	if c.used > 0 {
		if avg := float64(c.inserted) / float64(c.used); avg > calTargetFill {
			w = w * calTargetFill / avg
		}
	}
	if w < c.reqWidth {
		w = c.reqWidth
	}
	s.openWindow(base, w)
}

// sanitizeWidth clamps a bucket width to a positive finite value, guarding
// the tuner against degenerate spans (ε = δ = 0) and fuzzed NaN/Inf inputs.
func sanitizeWidth(w float64) float64 {
	if !(w > calMinWidth) { // catches NaN, zero, negatives
		return calMinWidth
	}
	if math.IsInf(w, 1) || w > 1e18 {
		return 1e18
	}
	return w
}

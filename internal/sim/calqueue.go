package sim

import (
	"math"
	"slices"

	"repro/internal/clock"
)

// This file implements the scheduler — the global message buffer of §2.2
// with the total delivery order of §2.3. What the copies of a buffered
// message share — one copy for a START or TIMER, one per recipient of a
// fan-out — sits in a header (msgHdr), and a 24-byte pointer-free entry per
// copy — the full sort key, the header, and the recipient — is what the
// queue structures move. Entries that wait unsorted sit in chains of
// fixed-size blocks drawn from one free list (bin, link). The store serves
// two queues:
//
//   - The time-major engine's: a 4-ary min-heap of entries (entryHeap), a
//     complete scheduler by itself ("heap mode"), optionally fronted by the
//     calendar below. It is the only queue that must serve arbitrary delays,
//     the adversary, timelines and per-delivery observers in global time
//     order.
//   - A windowed partition's (schedPartition, shard.go): its STARTs and
//     TIMERs on one heap of entries (timers), and no calendar. A fan-out
//     there is no entry until it is due: its row holds its copies' delivery
//     times, and at each lookahead window the partition gathers a process's
//     due copies from those rows, next to its due STARTs and TIMERs, into
//     the same window array the calendar opens a slot into; the heap then
//     holds only the acting process's in-window timers.
//
// The calendar works in three levels:
//
//   - The time line is cut into slots of span C, and the next R slots each
//     own a bin: an unsorted chain. Filing an entry is an append to its
//     slot's chain — once, when it is scheduled — so memory follows the peak
//     number of pending entries and a drained round's blocks serve the next.
//   - Everything beyond the ring, before it, or in the slot already open
//     goes to the heap.
//   - When the drain reaches a slot, its bin plus the heap entries that
//     belong to it are counting-sorted into one window array, in about one
//     group per calTargetFill entries, and a group is sorted when the drain
//     first touches it. A pop is the smaller of the window's head and the
//     heap's.
//
// Motivation: the Lundelius–Lynch algorithm is round-structured — every
// resynchronization round all n processes broadcast to all n peers, so n²
// messages land inside one bounded-delay window [δ−ε, δ+ε]. A comparison
// heap pays O(log n²) sift work per push and per pop in exactly that regime;
// here a push is one append and a pop one array read, and nothing is filed
// twice.
//
// The only geometry rule is shrink-only. C starts at the delay lower bound
// δ−ε (δ+2ε when that is zero), so no message sent inside a slot can land in
// it; when a slot is about to open holding more than calSlotCap entries — a
// window that would fall out of the L2 cache — C is cut to spread that
// population over enough slots, what is binned is re-placed, and the ring is
// resized to keep reaching calReach delay windows ahead.
//
// Ordering is the same relation everywhere. entryLess is the total order
// (DeliverAt, non-TIMER first, seq) — the tie-break packs into a single
// uint64 with the TIMER flag above the sequence bits. Slot index and group
// index are both monotone in the delivery time, so every binned entry is
// later than every entry of the open window and groups concatenate in order;
// the heap is compared entry by entry. Every pop sequence, and therefore
// every golden experiment table, is independent of whether the calendar is
// on and of C; the differential tests in queue_test.go and the
// FuzzBucketWidth target enforce this.

// schedMode says whether the calendar front is on. Engines always run
// schedAuto; the forced modes exist for this package's differential tests
// and benchmarks, which reach them through newEngine and sched.init.
type schedMode uint8

const (
	// schedAuto starts with the calendar off and switches it on when the
	// number of buffered events crosses calActivateLen — small systems never
	// pay calendar overhead, large broadcast storms never pay per-event sift
	// work. A Config.EventHint of at least calActivateLen switches it on from
	// the first event.
	schedAuto schedMode = iota
	// schedHeap keeps the calendar off for the whole run.
	schedHeap
	// schedCalendar switches the calendar on from the first event.
	schedCalendar
	// schedPartition is a windowed partition's queue: a heap of STARTs and
	// TIMERs, no calendar (shard.go).
	schedPartition
)

const (
	// calActivateLen is the buffered-event count at which schedAuto
	// switches the calendar on (n ≳ 22 full-mesh systems). The threshold is
	// a memory one, not a speed one: forced calendar beats forced heap at
	// every size BenchmarkSchedCrossover runs (PR 21, ns/event heap vs
	// calendar: 162–174 vs 98–114 at n = 8, 156–173 vs 80–90 at n = 16,
	// 163–183 vs 64–72 at n = 32, 206–255 vs 66–79 at n = 101), but the
	// calendar's first block chunk is 128 KB an engine, and switching it on
	// for every engine moves the benchmark's scenario_corpus alloc_mb_per_op
	// 1.10 → 2.04 MB — still 1.16 MB (+5.3 %, bound 3 %) with chunks sized
	// from the hint — so small systems stay on the heap.
	calActivateLen = 512
	// calReach is how many declared delay windows δ+2ε the ring of bins
	// reaches ahead of the open slot. A fan-out lands within one; senders
	// spread over β and K-exchange sub-rounds stack a few more on top.
	calReach = 4
	// calMaxSlots bounds the ring (32 bytes per bin). It also floors C at
	// calReach·(δ+2ε)/calMaxSlots: past that point slots grow instead of the
	// ring losing its reach.
	calMaxSlots = 32768
	// calTargetFill is the population per window group the counting sort
	// aims at; a group is finished by an insertion sort, so near-singleton
	// groups make pops O(1).
	calTargetFill = 4
	// calSlotCap is the slot population above which C is cut: a window of
	// 24-byte entries this long (768 KB) still sits in a 2 MB L2 next to
	// what Receive touches.
	calSlotCap = 1 << 15
	// calMinWidth floors C so degenerate inputs (ε = δ = 0, fuzzed NaN/Inf
	// spans) cannot collapse it to a zero or negative span.
	calMinWidth = 1e-12
	// slotLimit bounds slot indices so they stay exact in a float64; later
	// times (and NaN) are the heap's.
	slotLimit = 1 << 52
	// blockLen entries plus the link make a block 2 KB; blocks are carved
	// chunkBlocks at a time and never move.
	blockLen    = 85
	chunkBlocks = 64
)

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
// of heap shape, arity and slot layout. It is the single comparator shared
// by the heap and the window's group sort.
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

// entryHeap is a 4-ary min-heap of entries ordered by entryLess: the whole
// queue while the calendar is off, the store for events outside the ring of
// bins while it is on. It is deliberately not a container/heap.Interface
// (heap.Push(x any) would box every entry into an interface value, one
// allocation per scheduled message); the 4-ary layout halves tree depth
// versus a binary heap and scans each node's children within two cache
// lines.
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

// entryBlock is one link of a bin's chain.
type entryBlock struct {
	ents [blockLen]entry
	n    int32 // entries used
	next int32 // next block of the chain or free list; −1 ends it
}

// bin holds the entries filed for one slot of the ring, unsorted.
type bin struct {
	min, max float64 // earliest and latest delivery time held; ±Inf when empty
	tail     *entryBlock
	head     int32
	n        int32
}

var emptyBin = bin{min: math.Inf(1), max: math.Inf(-1), head: -1}

// sched is the scheduler the engine talks to. Messages live in their headers
// and their entries in exactly one of three places: the open window, a bin of
// the ring, or the heap. Every binned entry is later than every window entry,
// so the minimum is the smaller of the window's head and the heap's top while
// the window is nonempty, and the smaller of the first nonempty bin's minimum
// and the heap's top otherwise. On a partition the window is one process's
// due events and the heap its in-window timers (shard.go).
type sched struct {
	heap    entryHeap // everything the window and the ring do not hold
	hdrs    []msgHdr  // messages with copies still pending, and recycled slots
	hdrFree []int32

	calOn     bool
	mode      schedMode
	eventHint int     // expected peak buffered events (Config.EventHint)
	peak      int     // high-water mark of buffered events
	span      float64 // declared delay window δ+2ε: what the ring must reach
	c0        float64 // C at activation

	c, invC float64 // slot span and its inverse
	cur     int64   // the open slot; the ring holds slots cur+1 … cur+len(bins)−1
	lo, hi  float64 // at·invC in [lo, hi) ⇔ the entry's slot is in the ring
	mask    int64   // len(bins)−1
	bins    []bin
	first   int64 // no binned entry lies in a slot before this one
	binned  int   // entries held across all bins

	chunks  [][]entryBlock // block storage, never moved
	nblocks int32          // blocks carved out of chunks so far
	free    int32          // free-list head, −1 when empty

	win    []entry // the open slot's entries, grouped; win[wpos:] is pending
	off    []int32 // off[g] is where group g ends in win
	wpos   int
	wend   int     // win[wpos:wend] is sorted
	wgrp   int     // the group wend closes
	wlo    float64 // group(at) = (at − wlo)·wscale, clamped
	wscale float64
	spill  []entry // open's scratch for the heap entries it takes

	slotCap      int32 // calSlotCap, lowered only by tests
	cuts, opened int   // times C was cut; windows opened

	// Partition mode: the owned processes start at base; the window being
	// drained takes the events at < dueHi and ≤ dueUntil (dueHi is −∞
	// outside one); timers holds the STARTs and TIMERs not yet due, and
	// held[hpos:] the due ones not yet gathered, grouped by recipient; pend
	// counts the copies of published rows not yet gathered.
	base            int32
	dueHi, dueUntil float64
	timers          entryHeap
	held            []entry
	hpos            int
	pend            int
}

// init records the workload shape: δ and ε fix the starting slot span and
// the distance the ring must reach.
func (s *sched) init(mode schedMode, hint int, delta, eps float64) {
	s.mode = mode
	s.eventHint = hint
	s.span = delta + 2*eps
	if !(s.span > 0) || math.IsInf(s.span, 1) {
		s.span = 1e-3
	}
	s.c0 = s.span
	if l := delta - eps; l > 0 && l < s.c0 {
		s.c0 = l
	}
	s.dueHi = math.Inf(-1)
	if mode == schedCalendar || (mode == schedAuto && hint >= calActivateLen) {
		s.activate()
	}
}

func (s *sched) len() int {
	return len(s.win) - s.wpos + s.binned + s.heap.len() + s.pend + s.timers.len() + len(s.held) - s.hpos
}

// grow pre-sizes the backing stores: the header store for msgs buffered
// messages, and the heap — for all events while it is the whole queue, for a
// slice of msgs (timers and rejoin wake-ups, a small fraction of the
// population) behind the calendar. A calendar on from the start also gets
// its window, room for events entries but no more than calSlotCap, the
// population above which a slot is cut before it opens, so the window is
// sized once rather than regrown as the first rounds fill it. Bins grow with
// the traffic.
func (s *sched) grow(events, msgs int) {
	s.hdrs = withCap(s.hdrs, msgs)
	s.hdrFree = withCap(s.hdrFree, msgs)
	if s.calOn {
		s.win = withCap(s.win, min(events, calSlotCap))
		events = msgs/8 + 64
	}
	s.heap.items = withCap(s.heap.items, events)
}

// withCap returns s with room for c elements — exactly c if it had to move.
func withCap[T any](s []T, c int) []T {
	if cap(s) >= c {
		return s
	}
	return append(make([]T, 0, c), s...)
}

// push files a message with a single copy — a START or a TIMER — under
// sequence number seq.
func (s *sched) push(m *Message, seq uint64) {
	h := s.newHdr(m.From, m.SentAt, m.Payload, m.Kind)
	s.hdrs[h].left = 1
	s.file(entry{at: float64(m.DeliverAt), key: packKey(m.Kind, seq), ref: h, to: int32(m.To)})
}

// file queues one entry and, under schedAuto, switches the calendar on once
// the population warrants it.
func (s *sched) file(en entry) {
	if s.mode == schedPartition {
		s.hold(en)
	} else {
		s.place(en)
	}
	if l := s.len(); l > s.peak {
		s.peak = l
		// A population reaching the threshold is necessarily a new peak.
		if !s.calOn && l >= calActivateLen && s.mode == schedAuto {
			s.activate()
		}
	}
}

// place puts an entry where it belongs: the bin of its slot when the
// calendar is on and the slot is in the ring, the heap otherwise. A NaN
// delivery time has no place in a total order; it is filed as +Inf (never
// delivered before a finite horizon).
func (s *sched) place(en entry) {
	f := en.at * s.invC
	if !s.calOn || !(f >= s.lo && f < s.hi) {
		if en.at != en.at {
			en.at = math.Inf(1)
		}
		s.heap.push(en)
		return
	}
	slot := int64(f)
	if slot < s.first {
		s.first = slot
	}
	b := &s.bins[slot&s.mask]
	t := b.tail
	if t == nil || t.n == blockLen {
		t = s.link(b)
	}
	t.ents[t.n] = en
	t.n++
	b.n++
	if en.at < b.min {
		b.min = en.at
	}
	if en.at > b.max {
		b.max = en.at
	}
	s.binned++
}

func (s *sched) block(id int32) *entryBlock {
	return &s.chunks[id/chunkBlocks][id%chunkBlocks]
}

// link appends an empty block — recycled, or carved from the newest chunk —
// to b's chain.
func (s *sched) link(b *bin) *entryBlock {
	id := s.free
	if id >= 0 {
		s.free = s.block(id).next
	} else {
		if s.nblocks%chunkBlocks == 0 {
			s.chunks = append(s.chunks, make([]entryBlock, chunkBlocks))
		}
		id = s.nblocks
		s.nblocks++
	}
	t := s.block(id)
	t.n, t.next = 0, -1
	if b.tail == nil {
		b.head = id
	} else {
		b.tail.next = id
	}
	b.tail = t
	return t
}

// walk calls fn on every entry of b's chain.
func (s *sched) walk(b *bin, fn func(en *entry)) {
	for id := b.head; id >= 0; {
		t := s.block(id)
		for i := range t.ents[:t.n] {
			fn(&t.ents[i])
		}
		id = t.next
	}
}

// drain calls fn on every entry of b's chain, returns the blocks to the free
// list as it goes (fn may file entries: a block is released only once read),
// and leaves b empty.
func (s *sched) drain(b *bin, fn func(en *entry)) {
	for id := b.head; id >= 0; {
		t := s.block(id)
		for i := range t.ents[:t.n] {
			fn(&t.ents[i])
		}
		next := t.next
		t.next, s.free = s.free, id
		id = next
	}
	*b = emptyBin
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

// nextBin returns the first nonempty bin and its slot; binned must be > 0.
func (s *sched) nextBin() (*bin, int64) {
	for ; ; s.first++ {
		if b := &s.bins[s.first&s.mask]; b.n > 0 {
			return b, s.first
		}
	}
}

// peekTime returns the delivery time of the minimum buffered event, or
// ok == false when the queue is empty. It opens no slot: a timeline action
// fired before that time may file something earlier.
func (s *sched) peekTime() (clock.Real, bool) {
	t, ok := 0.0, false
	if s.wpos < len(s.win) {
		t, ok = s.win[s.wpos].at, true
	} else if s.binned > 0 {
		b, _ := s.nextBin()
		t, ok = b.min, true
	}
	if top := s.heap.peek(); top != nil && (!ok || top.at < t) {
		t, ok = top.at, true
	}
	return clock.Real(t), ok
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

// popEntry removes and returns the minimum entry.
func (s *sched) popEntry() entry {
	if !s.calOn {
		return s.heap.pop()
	}
	if s.wpos == len(s.win) {
		s.rotate()
	}
	return s.popWin()
}

// popWin removes and returns the smaller of the open window's head and the
// heap's top; one of them must hold an entry.
func (s *sched) popWin() entry {
	if s.wpos == len(s.win) {
		return s.heap.pop()
	}
	w := &s.win[s.wpos]
	if top := s.heap.peek(); top != nil && entryLess(top, w) {
		return s.heap.pop()
	}
	s.wpos++
	if s.wpos == s.wend && s.wpos < len(s.win) {
		s.sortGroup()
	}
	return *w
}

// forEachPending calls fn for every buffered message until fn returns
// false: exactly one per pending entry, wherever it is filed. Iteration
// order is unspecified. Read-only view for the adversary seam; never on the
// hot path.
func (s *sched) forEachPending(fn func(m *Message) bool) {
	var m Message
	more := true
	visit := func(en *entry) {
		if more {
			s.load(en, &m)
			more = fn(&m)
		}
	}
	for i := s.wpos; i < len(s.win); i++ {
		visit(&s.win[i])
	}
	for i := range s.heap.items {
		visit(&s.heap.items[i])
	}
	for i := range s.bins {
		s.walk(&s.bins[i], visit)
	}
}

// activate switches the calendar on at the starting slot span, with the ring
// positioned just before the earliest buffered event, and moves every heap
// entry that fits the ring into its bin. Headers stay where they are.
func (s *sched) activate() {
	s.calOn = true
	s.free = -1
	if s.slotCap == 0 {
		s.slotCap = calSlotCap
	}
	s.setSpan(s.c0)
	s.setCur(-1)
	if top := s.heap.peek(); top != nil {
		s.setCur(s.slotOf(top.at) - 1)
	}
	items := s.heap.items
	s.heap.items = items[:0]
	for _, en := range items {
		s.place(en) // a heap push lands at or before the index just read
	}
}

// setSpan sets the slot span and sizes an empty ring to reach calReach delay
// windows.
func (s *sched) setSpan(c float64) {
	c = min(max(c, calMinWidth), 1e18)
	r := 8
	for r < calMaxSlots && float64(r)*c < calReach*s.span {
		r *= 2
	}
	s.c, s.invC, s.mask = c, 1/c, int64(r-1)
	s.bins = make([]bin, r)
	for i := range s.bins {
		s.bins[i] = emptyBin
	}
	s.binned, s.first = 0, 0
}

// setCur makes slot the open one. Negative times have no slot (they are the
// heap's), which keeps the truncating int64(f) in place a floor.
func (s *sched) setCur(slot int64) {
	s.cur = slot
	s.lo = max(float64(slot+1), 0)
	s.hi = min(float64(slot+1+s.mask), slotLimit)
	s.first = max(s.first, slot+1)
}

// slotOf returns the slot of a delivery time, clamped to [−1, slotLimit].
func (s *sched) slotOf(at float64) int64 {
	f := at * s.invC
	switch {
	case f < 0:
		return -1
	case f < slotLimit:
		return int64(f)
	}
	return slotLimit // NaN included
}

// rotate opens the slot holding the minimum buffered event. Called when the
// window has drained and the queue is nonempty.
func (s *sched) rotate() {
	for {
		var b *bin
		slot := int64(slotLimit)
		if s.binned > 0 {
			b, slot = s.nextBin()
		}
		if top := s.heap.peek(); top != nil {
			if hs := s.slotOf(top.at); hs < slot {
				// Only heap entries are due; the open slot never moves back.
				b, slot = nil, max(hs, s.cur)
			}
		}
		if b == nil || b.n <= s.slotCap || !s.cut(b) {
			s.open(b, slot)
			return
		}
	}
}

// group maps a delivery time to its group of the open window: monotone in
// at, and clamped for what lies outside the range the groups were laid over
// (heap entries around a bin's own, ±Inf).
func (s *sched) group(at float64) int {
	x := (at - s.wlo) * s.wscale
	switch {
	case x < 0 || (x != x && !(at > s.wlo)): // NaN: an infinite time or range
		return 0
	case x < float64(len(s.off)):
		return int(x)
	}
	return len(s.off) - 1
}

// open makes slot the open one and counting-sorts its bin (nil when only
// heap entries are due) together with every heap entry at or before the slot
// into the window.
func (s *sched) open(b *bin, slot int64) {
	s.setCur(slot)
	s.opened++
	sp := s.spill[:0]
	for top := s.heap.peek(); top != nil && s.slotOf(top.at) <= slot; top = s.heap.peek() {
		sp = append(sp, s.heap.pop())
	}
	s.spill = sp
	total := len(sp)
	if b != nil {
		total += int(b.n)
	}
	// About calTargetFill entries to a group, laid over the times the bin
	// actually holds (a fan-out lands in a 2ε stretch of a δ−ε slot), or,
	// with no bin, over the heap entries'.
	groups := total/calTargetFill + 1
	var lo, hi float64
	if b != nil {
		lo, hi = b.min, b.max
	} else {
		lo, hi = sp[0].at, sp[len(sp)-1].at
	}
	s.wlo, s.wscale = lo, 0
	if hi > lo {
		s.wscale = float64(groups) / (hi - lo)
	}
	off := slices.Grow(s.off[:0], groups)[:groups]
	clear(off)
	s.off = off
	s.win = slices.Grow(s.win[:0], total)[:total]

	count := func(en *entry) { off[s.group(en.at)]++ }
	for i := range sp {
		count(&sp[i])
	}
	if b != nil {
		s.walk(b, count)
	}
	sum := int32(0)
	for g, n := range off {
		off[g] = sum // where group g starts, until scatter moves it to its end
		sum += n
	}
	scatter := func(en *entry) {
		g := s.group(en.at)
		s.win[off[g]] = *en
		off[g]++
	}
	for i := range sp {
		scatter(&sp[i])
	}
	if b != nil {
		s.binned -= int(b.n)
		s.drain(b, scatter)
	}
	s.wpos, s.wend, s.wgrp = 0, 0, -1
	s.sortGroup()
}

// sortGroup sorts the first nonempty group at or after the drain position,
// which must be at a group boundary with entries left.
func (s *sched) sortGroup() {
	for s.wgrp++; int(s.off[s.wgrp]) == s.wpos; s.wgrp++ {
	}
	s.wend = int(s.off[s.wgrp])
	sortEntries(s.win[s.wpos:s.wend])
}

// sortEntries orders one group by entryLess. Groups are near-singleton by
// construction, so the common cases are handled inline and the general
// sorter only sees the occasional dense spike (e.g. ε = 0 delays landing a
// whole fan-out on one instant).
func sortEntries(b []entry) {
	if len(b) > 16 {
		slices.SortFunc(b, entryCmp)
		return
	}
	for i := 1; i < len(b); i++ {
		en := b[i]
		j := i
		for j > 0 && entryLess(&en, &b[j-1]) {
			b[j] = b[j-1]
			j--
		}
		b[j] = en
	}
}

// cut shrinks C because b, the bin about to open, is over calSlotCap: the new
// span spreads b's population, at the density it has between its earliest and
// latest entry, about half a cap per slot. Everything binned is re-placed
// under the new span in a ring resized to keep its reach. It reports false
// when no smaller span would help — the entries share one instant, or C is at
// its floor.
func (s *sched) cut(b *bin) bool {
	c := min(s.c/2, (b.max-b.min)*float64(s.slotCap/2)/float64(b.n))
	c = max(c, calReach*s.span/calMaxSlots)
	if !(b.max > b.min && c >= calMinWidth && c < s.c) {
		return false
	}
	s.cuts++
	old, start := s.bins, b.min
	s.setSpan(c)
	s.setCur(s.slotOf(start) - 1)
	replace := func(en *entry) { s.place(*en) }
	for i := range old {
		s.drain(&old[i], replace)
	}
	return true
}

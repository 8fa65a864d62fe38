package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/clock"
	"repro/internal/exp/runner"
)

// This file implements the windowed execution (Config.Shards = k ≥ 1): a
// conservative time-window parallelization of the engine in the classic PDES
// style (Chandy–Misra lookahead). Assumption A3 — every message delay lies in
// [δ−ε, δ+ε] — gives the model an intrinsic lookahead of L = δ−ε: a message
// sent at or after real time t cannot be delivered before t+L, so events in
// the half-open window [t, t+L) are causally independent across processes
// and may execute in parallel.
//
// The processes are partitioned into k contiguous blocks, each owned by a
// partition: an Engine holding only its processes' pending events, each on
// its recipient's chain (schedChains, calqueue.go). Partition 0 is the engine
// New returns; it drives the windows and replays the samples and annotations
// of each window at its cut (clocktable.go). A window runs as: (1) find the
// globally earliest pending event time m, over the chains and the copies the
// last window sent; (2) let every partition, concurrently on one runner.Map
// worker set per window, file the copies the last window sent it onto its
// chains and then deliver its events in [m, m+L) process by process
// (Engine.drainWindow): each owned process, in ascending id, takes its due
// events off its chain, sorts them by (at, key) and receives them in that
// order, with any TIMER it sets for inside the window merged in; (3) join,
// hand each link's copies to its destination, cut, and repeat. Every link is
// double-buffered — the buffer a source appends to this window, and the one
// its destination files from — so the serial phase at the cut is k²
// comparisons and swaps, and the filing runs on the worker set. A
// partition's own sends wait in a bounded stage of the same form; both are
// filed onto the chains a tile of recipients at a time (fileLink).
//
// Process by process is one execution because a step changes only the
// recipient's state and the buffer (§2.3(6)), and A3 puts every ordinary
// copy sent at t ≥ m at or after t+L ≥ m+L: inside the window the only event
// a step can add for the window is its own process's TIMER. So each
// process's own (at, key)-ordered sequence of due events is what the
// time-major engine delivers it, and the order between processes is
// unobservable. A copy a delay model files inside the window breaks the
// declared lower bound; Run fails at the cut naming the least (at, key) such
// copy over the partitions — the same error for every k — rather than
// deliver a reordered execution. runner.Map's join is the only
// synchronization: it returns once every partition has, and turns a
// panicking Receive into that partition's error.
//
// Determinism is independent of k (the oracle E19 and TestShardedDeterminism
// pin) because no order state is shared: every engine, time-major or
// partition, gives each sender its own delay stream (senderSeed) and send
// index, and breaks (DeliverAt) ties with packed (sender, send index,
// recipient) keys (Engine.packSeq). A copy's delay and key are fixed
// properties of the execution, not of the partition, so the time-major
// engine and a windowed one over any k run one execution on every delay
// model (TestShardedMatchesSequential).
//
// Restrictions, validated at New (validateWindowed): the channel must be
// stateless (FullMesh or LossyLinks; Ether's contention bookkeeping is
// inherently sequential), no adversary (its omniscient PendingDeliveries view
// and retime hooks observe a global order), no timeline (its actions mutate
// global routing/delay state mid-window), and δ−ε must be positive — with
// zero lookahead no window can make progress. Samplers and annotation sinks
// are replayed at the cuts; per-delivery observers are not yet implemented
// (see Engine.Observe).

// chunkHdr is one message's share of a shardLink: what its copies have in
// common, and how many of the link's entries (in order) are its. While the
// destination files the chunk, ref is its header there and pos the next of
// its n entries still to file.
type chunkHdr struct {
	from     ProcID
	sentAt   clock.Real
	payload  any
	n        int32
	ref, pos int32
}

// shardLink is the traffic one shard produced for another during one
// window, unicasts and fan-out copies alike: the copies as ready-keyed queue
// entries, a chunk's in recipient order (the destination's header index is
// filled in when it files them), and their earliest delivery time, which the
// sender keeps as it appends so the next window's start counts them in O(1).
// The destination empties a link in place when it files it, and the cut hands
// the emptied buffer back to the source, so steady-state windows allocate
// nothing.
type shardLink struct {
	hdrs []chunkHdr
	ents []entry
	min  float64 // +Inf when empty
}

// newShardLinks returns a partition's links: the outbound one per
// destination and the inbound one per source.
func newShardLinks(k int) (out, in []shardLink) {
	ls := make([]shardLink, 2*k)
	for i := range ls {
		ls[i].min = math.Inf(1)
	}
	return ls[:k:k], ls[k:]
}

// open starts the chunk of a new message; add appends its copies.
func (l *shardLink) open(from ProcID, sentAt clock.Real, payload any) {
	l.hdrs = append(l.hdrs, chunkHdr{from: from, sentAt: sentAt, payload: payload})
}

// add appends one copy of the message last opened.
func (l *shardLink) add(en entry) {
	l.hdrs[len(l.hdrs)-1].n++
	if en.at < l.min {
		l.min = en.at
	}
	if len(l.ents) == cap(l.ents) {
		// Double exactly: append's 1.25× steps would copy a link that
		// ends a round at n²/k² entries five times over.
		l.ents = append(make([]entry, 0, max(2*len(l.ents), 64)), l.ents...)
	}
	l.ents = append(l.ents, en)
}

// validateWindowed is validate's block for Shards ≠ 0.
func validateWindowed(cfg Config) error {
	k, n := cfg.Shards, len(cfg.Procs)
	switch {
	case k < 1:
		return fmt.Errorf("sim: %d shards", k)
	case k > n:
		return fmt.Errorf("sim: %d shards for %d processes", k, n)
	case cfg.Adversary != nil:
		return errors.New("sim: sharded execution does not support an adversary (its omniscient view requires the sequential engine)")
	case len(cfg.Timeline) > 0:
		return errors.New("sim: sharded execution does not support a timeline (actions mutate global routing/delay state mid-window)")
	}
	switch cfg.Channel.(type) {
	case nil, FullMesh, LossyLinks:
	default:
		return fmt.Errorf("sim: sharded execution requires a stateless channel, got %T", cfg.Channel)
	}
	if d, eps := cfg.Delay.Bounds(); !(d-eps > 0) {
		return fmt.Errorf("sim: sharded execution needs positive lookahead δ−ε, got δ=%v ε=%v", d, eps)
	}
	return nil
}

// newWindowed builds the Config.Shards partitions of a validated cfg, with
// processes assigned in contiguous blocks, and returns partition 0. All
// partitions share the configuration's process, clock and fault slices
// read-only.
func newWindowed(cfg Config) (*Engine, error) {
	n, k := len(cfg.Procs), cfg.Shards
	owner := make([]int32, n)
	per := (n + k - 1) / k
	for i := range owner {
		owner[i] = int32(i / per)
	}
	parts := make([]*Engine, k)
	for s := range parts {
		p, err := newBase(cfg)
		if err != nil {
			return nil, err
		}
		lo, hi := min(s*per, n), min((s+1)*per, n)
		p.local, p.shardOf = make([]bool, n), owner
		for i := lo; i < hi; i++ {
			p.local[i] = true
		}
		p.out, p.in = newShardLinks(k)
		p.queue.initChains(lo, hi-lo, n)
		p.start(cfg.StartAt)
		parts[s] = p
	}
	d, eps := cfg.Delay.Bounds()
	e := parts[0]
	e.parts, e.lookahead = parts, d-eps
	return e, nil
}

// Windows returns how many synchronization windows have run: 0 on the
// time-major engine, which has none.
func (e *Engine) Windows() int { return e.windows }

// minPending returns the earliest pending event time across the partitions:
// their chains and the copies the last window sent them. An event at +Inf
// never comes.
func (e *Engine) minPending() (clock.Real, bool) {
	m := math.Inf(1)
	for _, p := range e.parts {
		for i := range p.queue.bins {
			m = min(m, p.queue.bins[i].min)
		}
		for s := range p.in {
			m = min(m, p.in[s].min)
		}
	}
	return clock.Real(m), m < math.Inf(1)
}

// runWindows is Run on a windowed engine: windows until no partition holds
// an event at or before until, or the step limit is hit. Before it returns it
// files the copies the last window sent, so the chains hold every pending
// event.
func (e *Engine) runWindows(until clock.Real) error {
	defer e.fileAll()
	e.enter()
	for {
		more, err := e.window(until)
		if !more || err != nil {
			return err
		}
	}
}

// window runs the next window and replays it at its cut — all events
// strictly before the cut delivered and no others. With no event left at or
// before until it advances every partition to until and samples the horizon,
// as time-major Run does, and reports no more.
func (e *Engine) window(until clock.Real) (more bool, err error) {
	m, any := e.minPending()
	if !any || m > until {
		e.advance(until)
		for _, p := range e.parts {
			p.now = max(p.now, until)
		}
		e.horizon()
		return false, nil
	}
	if e.Steps() >= e.maxSteps {
		return false, fmt.Errorf("sim: step limit %d exceeded at t=%v", e.maxSteps, e.now)
	}
	hi := m + clock.Real(e.lookahead)
	cut, from := min(hi, until), e.now
	if _, err := runner.Map(len(e.parts), len(e.parts), func(i int) (struct{}, error) {
		p := e.parts[i]
		err := p.drainWindow(hi, until)
		if err == nil && p.now < cut {
			p.now = cut
		}
		return struct{}{}, err
	}); err != nil {
		var p *runner.PanicError
		if errors.As(err, &p) { // process code panicked: job i is partition i
			return false, fmt.Errorf("sim: shard %d panicked: %v\n%s", p.Job, p.Value, p.Stack)
		}
		return false, err
	}
	var early *earlyCopy
	for _, p := range e.parts {
		if p.bad != nil {
			return false, p.bad
		}
		if c := &p.early; c.ok && (early == nil || entryLess(&c.en, &early.en)) {
			early = c
		}
	}
	if early != nil {
		return false, fmt.Errorf("sim: delay model violated its declared lower bound: copy %d→%d delivers at %v inside the window ending %v",
			early.from, early.en.to, early.en.at, hi)
	}
	e.handOver()
	e.windows++
	return true, e.replay(from, cut)
}

// logEntry is one entry of a partition's window log, made by the delivery
// with queue key key, at real time at, by process proc: an annotation (tag,
// value) with proc's correction at emission in corr, a move of proc's
// correction to corr (change), or both, when the move is what the
// delivery's last annotation already showed.
type logEntry struct {
	key           uint64
	at            clock.Real
	tag           string
	value         float64
	corr          clock.Local
	proc          int32
	annot, change bool
}

// replay is the sampling rule at the cut of the window [from, cut): it steps
// partition 0's rows through the partitions' logs merged in (at, key) order —
// each is in its partition's pop order, and one delivery's entries come from
// one partition — with Now at each entry's instant. It samples at every edge
// and around every change, and hands each annotation to the sinks with the
// emitter's row as at emission. At the cut every row must hold its process's
// correction; otherwise a correction moved outside its own Receive and no
// later delivery of its process picked the move up.
func (e *Engine) replay(from, cut clock.Real) error {
	tb := &e.tbl
	e.now = from
	for {
		var src *Engine
		var en *logEntry
		for _, p := range e.parts {
			if p.logPos == len(p.wlog) {
				continue
			}
			if a := &p.wlog[p.logPos]; src == nil || a.at < en.at || a.at == en.at && a.key < en.key {
				src, en = p, a
			}
		}
		if src == nil {
			break
		}
		src.logPos++
		e.advance(en.at)
		p := ProcID(en.proc)
		j := tb.rowOf[p]
		if j < 0 { // a process outside the table: an annotation only
			e.dispatch(Annotation{At: en.at, Proc: p, Tag: en.tag, Value: en.value})
			continue
		}
		was := tb.rows[j].corr
		e.setRow(j, en.corr)
		if en.annot {
			e.dispatch(Annotation{At: en.at, Proc: p, Tag: en.tag, Value: en.value})
		}
		if en.change {
			e.change(j, was)
		} else {
			e.setRow(j, was)
		}
	}
	for _, p := range e.parts {
		clear(p.wlog)
		p.wlog, p.logPos = p.wlog[:0], 0
	}
	e.advance(cut)
	for i, p := range tb.ids {
		if c := e.corr[p].Corr(); !same(c, tb.rows[i].corr) {
			return fmt.Errorf("sim: process %d's correction moved outside its own Receive by t=%v: its deliveries left it at %v, it held %v (sim.CorrHolder contract)",
				p, e.now, tb.rows[i].corr, c)
		}
	}
	return nil
}

// handOver moves each link that carries copies to its destination's inbound
// side, taking the buffer the destination filed from back in exchange. A
// quiet link takes the larger of its two emptied buffers, so traffic that
// comes in bursts grows one buffer per link, not two. Single-threaded, once
// per window: k² comparisons and swaps.
func (e *Engine) handOver() {
	for s, src := range e.parts {
		for d := range src.out {
			l, in := &src.out[d], &e.parts[d].in[s]
			if len(l.ents) == 0 && cap(in.ents) <= cap(l.ents) {
				continue
			}
			*l, *in = *in, *l
		}
	}
}

// fileInbound moves the copies the last window sent this partition onto its
// chains: sources in ascending order, each chunk under a header of its own
// made in chunk order — one order whatever runs it, so header indexes stay
// fixed properties of the execution. Each partition runs it for itself at
// the head of its share of a window.
func (e *Engine) fileInbound() {
	q := &e.queue
	for s := range e.in {
		l := &e.in[s]
		o := int32(0)
		for j := range l.hdrs {
			h := &l.hdrs[j]
			h.ref = q.newHdr(h.from, h.sentAt, h.payload, KindOrdinary)
			q.setLeft(h.ref, h.n)
			h.payload = nil // release the payload reference
			h.pos, o = o, o+h.n
		}
		q.fileLink(l)
	}
}

// stageCopies keeps the copies a send of the partition's own files under
// header h for fileLink, first filing what the stage holds if it has
// stageSends sends or the copies would not fit: filing a fan-out's copies at
// once would touch the tail of every recipient's chain, each on its own
// page, once per send.
func (s *sched) stageCopies(h int32, ents []entry) {
	st := &s.stage
	if len(st.hdrs) == stageSends || len(st.ents)+len(ents) > cap(st.ents) {
		s.fileLink(st)
	}
	st.hdrs = append(st.hdrs, chunkHdr{n: int32(len(ents)), ref: h, pos: int32(len(st.ents))})
	for _, en := range ents {
		en.ref = h
		st.ents = append(st.ents, en)
	}
	s.peak = max(s.peak, s.len())
}

// fileLink puts the copies of l's chunks — each with its header ref and its
// first entry pos set, its entries in recipient order — onto their chains,
// and empties l. Fan-out chunks go a tile of recipients at a time, each chunk
// giving its next run: a tile's chain tails and the chunks' cursors are few
// enough pages for the TLB to hold, where chunk by chunk every chunk would
// touch every chain's. Chunks shorter than a tile on average (unicasts) go
// in one pass, as one tile.
func (s *sched) fileLink(l *shardLink) {
	tile := int32(fileTile)
	if len(l.ents) < fileTile*len(l.hdrs) {
		tile = int32(len(s.bins))
	}
	for lo := s.base; len(l.hdrs) > 0 && lo < s.base+int32(len(s.bins)); lo += tile {
		for j := range l.hdrs {
			h := &l.hdrs[j]
			for ; h.n > 0 && l.ents[h.pos].to < lo+tile; h.pos, h.n = h.pos+1, h.n-1 {
				en := l.ents[h.pos]
				en.ref = h.ref
				s.put(&s.bins[en.to-s.base], en)
			}
		}
	}
	l.hdrs, l.ents, l.min = l.hdrs[:0], l.ents[:0], math.Inf(1)
	s.peak = max(s.peak, s.len())
}

const (
	// fileTile is how many recipients fileLink files at a time.
	fileTile = 32
	// stageSends is how many sends' local copies the stage holds.
	stageSends = 32
)

// fileAll files what the last window sent, on every partition.
func (e *Engine) fileAll() {
	for _, p := range e.parts {
		p.fileInbound()
	}
}

// earlyCopy is a copy filed inside the window it was sent in, with its
// sender; ok marks one found.
type earlyCopy struct {
	from ProcID
	en   entry
	ok   bool
}

// noteEarly keeps c, a copy from sender from that lands inside the window
// being drained, if it is the least (at, key) such copy so far.
func (e *Engine) noteEarly(from ProcID, c entry) {
	if l := &e.early; !l.ok || entryLess(&c, &l.en) {
		*l = earlyCopy{from: from, en: c, ok: true}
	}
}

// drainWindow is a partition's share of the window [m, hi): it files the
// copies the last window sent it, then lets each owned process, in ascending
// id, receive its events due before hi and at or before until, in (at, key)
// order, merged with the TIMERs it sets for inside the window. This, with
// the filing, is the only engine code that runs concurrently: each partition
// touches its own chains, links, senders, log and processes. The window log
// is left in (at, key) order for the replay.
func (e *Engine) drainWindow(hi, until clock.Real) error {
	e.fileInbound()
	q := &e.queue
	q.dueHi, q.dueUntil = float64(hi), float64(until)
	defer q.shut()
	var m Message
	for i := range q.bins {
		if !q.openDue(i) {
			continue
		}
		for q.wpos < len(q.win) || q.heap.len() > 0 {
			if e.steps >= e.maxSteps {
				return fmt.Errorf("sim: step limit %d exceeded at t=%v", e.maxSteps, e.now)
			}
			e.step(q.popWin(), &m)
		}
	}
	slices.SortStableFunc(e.wlog, func(a, b logEntry) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.key, b.key))
	})
	return nil
}

// initChains makes s the queue of a partition owning the processes [base,
// base+owned) of an n-process system: a chain per process, room for one
// process's due events in a window — a round's n copies — and for their
// sort's group counts, for a few in-window timers, for the local copies of
// stageSends fan-outs, and for the headers of the broadcasts in flight.
func (s *sched) initChains(base, owned, n int) {
	s.mode, s.base, s.free = schedChains, int32(base), -1
	s.dueHi = math.Inf(-1)
	s.bins = make([]bin, owned)
	for i := range s.bins {
		s.bins[i] = emptyBin
	}
	s.win = make([]entry, 0, n+16)
	s.spill = make([]entry, 0, n+16)
	s.off = make([]int32, 0, 2*(n+16)+1)
	s.heap.items = make([]entry, 0, 16)
	s.stage = shardLink{
		hdrs: make([]chunkHdr, 0, stageSends),
		ents: make([]entry, 0, stageSends*owned),
		min:  math.Inf(1),
	}
	s.grow(0, 4*n+16)
}

// chain files an entry on its recipient's chain, a NaN delivery time as
// +Inf. A TIMER due in the window being drained is the acting process's own
// (only a process's step sets its timers): it goes to the heap, from which
// the drain merges it into the process's due events.
func (s *sched) chain(en entry) {
	if en.at != en.at {
		en.at = math.Inf(1)
	}
	if en.key&entryTimerBit != 0 && s.due(en.at) {
		s.heap.push(en)
		return
	}
	s.put(&s.bins[en.to-s.base], en)
}

// due reports whether an event at t belongs to the window being drained.
func (s *sched) due(t float64) bool { return t < s.dueHi && t <= s.dueUntil }

// openDue moves process base+i's due events off its chain into the window,
// sorted (sortDue), and reports whether there were any. The sort's groups
// are laid over the ordinary copies' times: a process's own timer for later
// in the round would otherwise stretch them and crowd the copies into a
// few. What is not due stays on the chain, compacted into its first blocks;
// the blocks it no longer needs go back to the free list.
func (s *sched) openDue(i int) bool {
	b := &s.bins[i]
	if !s.due(b.min) {
		return false
	}
	sp, lo, hi := s.spill[:0], math.Inf(1), math.Inf(-1)
	keep, kmin, kmax := int32(0), math.Inf(1), math.Inf(-1)
	w := s.block(b.head) // the block being refilled: never ahead of the read
	for id := b.head; id >= 0; {
		t := s.block(id)
		for _, en := range t.ents[:t.n] {
			if s.due(en.at) {
				sp = append(sp, en)
				if en.key&entryTimerBit == 0 {
					lo, hi = min(lo, en.at), max(hi, en.at)
				}
				continue
			}
			if keep > 0 && keep%blockLen == 0 {
				w = s.block(w.next)
			}
			w.ents[keep%blockLen] = en
			keep++
			kmin, kmax = min(kmin, en.at), max(kmax, en.at)
		}
		id = t.next
	}
	if keep == 0 {
		s.release(b.head)
		*b = emptyBin
	} else {
		w.n = (keep-1)%blockLen + 1
		s.release(w.next)
		w.next = -1
		b.tail, b.n, b.min, b.max = w, keep, kmin, kmax
	}
	s.binned -= len(sp)
	s.spill = sp
	if lo > hi { // timers only
		lo, hi = sp[0].at, sp[0].at
		for _, en := range sp {
			lo, hi = min(lo, en.at), max(hi, en.at)
		}
	}
	s.sortDue(sp, lo, hi)
	return true
}

// sortDue sorts one process's due events sp into the window by entryLess: a
// counting sort on their times into about two groups per entry, laid over
// [lo, hi] (group is monotone in the time and clamps what lies outside),
// then one insertion pass, which moves only entries that share a group.
func (s *sched) sortDue(sp []entry, lo, hi float64) {
	total := len(sp)
	groups := 2*total + 1
	s.wlo, s.wscale = lo, 0
	if hi > lo {
		s.wscale = float64(groups) / (hi - lo)
	}
	off := slices.Grow(s.off[:0], groups)[:groups]
	clear(off)
	s.off = off
	for i := range sp {
		off[s.group(sp[i].at)]++
	}
	sum := int32(0)
	for g, n := range off {
		off[g] = sum
		sum += n
	}
	win := slices.Grow(s.win[:0], total)[:total]
	for i := range sp {
		g := s.group(sp[i].at)
		win[off[g]] = sp[i]
		off[g]++
	}
	for i := 1; i < total; i++ {
		if en := win[i]; entryLess(&en, &win[i-1]) {
			j := i
			for j > 0 && entryLess(&en, &win[j-1]) {
				win[j] = win[j-1]
				j--
			}
			win[j] = en
		}
	}
	s.win, s.wpos, s.wend = win, 0, total
}

// release returns the chain of blocks starting at id (−1 for none) to the
// free list.
func (s *sched) release(id int32) {
	for id >= 0 {
		t := s.block(id)
		next := t.next
		t.next, s.free = s.free, id
		id = next
	}
}

// shut ends a partition's window: the stage is filed, and what the window
// and the heap still hold — only after the step limit stopped the drain —
// goes back on its chains.
func (s *sched) shut() {
	s.fileLink(&s.stage)
	s.dueHi = math.Inf(-1)
	for _, en := range s.win[s.wpos:] {
		s.put(&s.bins[en.to-s.base], en)
	}
	for _, en := range s.heap.items {
		s.put(&s.bins[en.to-s.base], en)
	}
	s.win, s.wpos, s.heap.items = s.win[:0], 0, s.heap.items[:0]
}

// ShardedEngine, NewSharded, Stats and ShardStats are vestiges the frozen
// benchmark/replica.go still names; ROADMAP item 3 deletes them with the
// replica. The engine is Engine with Config.Shards ≥ 1.
type ShardedEngine struct{ *Engine }

// NewSharded is New with Config.Shards = k. k < 1 is an error: the name
// promises a windowed engine.
func NewSharded(cfg Config, k int) (*ShardedEngine, error) {
	if k < 1 {
		return nil, fmt.Errorf("sim: %d shards", k)
	}
	cfg.Shards = k
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &ShardedEngine{e}, nil
}

// ShardStats counts the synchronization work of a windowed run. Every window
// is one barrier, so Barriers == Windows and BatchedWindows == 0.
type ShardStats struct {
	Windows, Barriers, BatchedWindows int
}

// Stats returns the synchronization counters of the run so far.
func (se *ShardedEngine) Stats() ShardStats {
	return ShardStats{Windows: se.windows, Barriers: se.windows}
}

package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
// partition: an Engine holding two stores. Every fan-out its processes send —
// a broadcast, a multicast or a Send — is one row (bcast) holding its copies'
// delivery times, which the cut after the send publishes on one board every
// partition reads; and its processes' STARTs and TIMERs that are not yet due
// are one heap (sched.timers). Partition 0 is the engine New returns; it
// drives the windows and replays the samples and annotations of each window
// at its cut (clocktable.go). A window runs as: (1) find the globally
// earliest pending event time m, over the timer heaps and the rows on the
// board; (2) let every partition, concurrently on one runner.Map worker set
// per window, deliver its events in [m, m+L) process by process
// (Engine.drainWindow): it pops its due STARTs and TIMERs and groups them by
// recipient, then, a tile of owned processes at a time, hands each one its
// own and reads its due copies off the rows that may hold some (gather); each
// process, in ascending id, sorts its due events by (at, key) and receives
// them in that order, with any TIMER it sets for inside the window merged in;
// (3) join, publish the rows the window sent and drop those whose copies are
// all delivered (publish), cut, and repeat. The serial phase at the cut is
// one pass over the board.
//
// Process by process is one execution because a step changes only the
// recipient's state and the buffer (§2.3(6)), and A3 puts every ordinary
// copy sent at t ≥ m at or after t+L ≥ m+L: inside the window the only event
// a step can add for the window is its own process's TIMER. So each
// process's own (at, key)-ordered sequence of due events is what the
// time-major engine delivers it, and the order between processes is
// unobservable. A copy a delay model sends inside the window breaks the
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

// partition is what a windowed engine's partition holds beyond the
// time-major engine, which keeps it nil. It is partition id of the engine,
// and owns the own processes [id·per, id·per+own). early is the
// least (at, key) copy a window's sends put inside the window, which breaks
// the delay model's declared lower bound.
//
// A fan-out's row goes on sent, and its copies are counted in tally per
// destination partition, until the cut publishes them on the board. Rows
// come from rows, one free list per size class — class c holds rows of
// min(2^c, n) times — refilled by the cut with the rows of this partition's
// delivered fan-outs; carved counts the rows made, a bcastSlab at a time.
// pendMin is the least time of a copy the last window's gather left pending,
// and due holds a tile's due events, one buffer per process.
type partition struct {
	id, per, own int
	early        earlyCopy

	board   *board
	sent    []bcast
	tally   []int
	rows    [][][]float64
	carved  int
	pendMin float64
	due     [][]entry
}

// owner returns the partition that owns process q.
func (pt *partition) owner(q int) int { return q / pt.per }

// bcast is one fan-out over [lo, lo+len(at)) on a windowed engine: what its
// copies share, and the row of their delivery times — at[q−lo] is the copy
// to q's, NaN for a copy the channel lost or badCopy refused. Copy q's queue
// key is seq | q. min and max are the row's finite extremes.
type bcast struct {
	from     ProcID
	lo       int
	sentAt   clock.Real
	payload  any
	seq      uint64
	min, max float64
	at       []float64
}

// board is the fan-outs in flight, shared by the partitions and read-only
// while a window runs: live is every published row with a copy not yet
// delivered, cands the window's candidates (the live rows with min < hi).
// (H, U) is the last completed window's (hi, until): every copy at < H and
// ≤ U is delivered. rest is the least min of the live rows no partition
// scanned in that window.
type board struct {
	live  []bcast
	cands []int32
	H, U  float64
	rest  float64
}

const (
	// bcastSlab is how many rows of a size class a partition carves at a
	// time.
	bcastSlab = 64
	// gatherTile is how many processes gather reads the rows for at once:
	// a tile's slice of a row is a few cache lines, where one process at a
	// time would touch each row's page once per process.
	gatherTile = 16
)

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
// read-only, and one board.
func newWindowed(cfg Config) (*Engine, error) {
	n, k := len(cfg.Procs), cfg.Shards
	per := (n + k - 1) / k
	b := &board{H: math.Inf(-1), U: math.Inf(-1), rest: math.Inf(1)}
	parts := make([]*Engine, k)
	for s := range parts {
		p, err := newBase(cfg)
		if err != nil {
			return nil, err
		}
		lo, hi := min(s*per, n), min((s+1)*per, n)
		pt := &partition{id: s, per: per, own: hi - lo, board: b, tally: make([]int, k), pendMin: math.Inf(1)}
		pt.rows = make([][][]float64, bits.Len(uint(n-1))+1)
		// A tile's buffers hold a round's copies each, carved from one array.
		tile := min(gatherTile, hi-lo)
		buf := make([]entry, tile*(n+16))
		pt.due = make([][]entry, tile)
		for i := range pt.due {
			pt.due[i] = buf[i*(n+16) : i*(n+16) : (i+1)*(n+16)]
		}
		p.part = pt
		p.queue.initPartition(lo, hi-lo, n)
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
// their timer heaps' tops, the copies their last gather left pending, and
// the rows on the board none of them scanned. An event at +Inf never comes.
func (e *Engine) minPending() (clock.Real, bool) {
	m := e.part.board.rest
	for _, p := range e.parts {
		m = min(m, p.part.pendMin)
		if top := p.queue.timers.peek(); top != nil {
			m = min(m, top.at)
		}
	}
	return clock.Real(m), m < math.Inf(1)
}

// runWindows is Run on a windowed engine: windows until no partition holds
// an event at or before until, or the step limit is hit.
func (e *Engine) runWindows(until clock.Real) error {
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
	e.part.board.candidates(float64(hi))
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
		if c := &p.part.early; c.ok && (early == nil || entryLess(&c.en, &early.en)) {
			early = c
		}
	}
	// Each partition held only its own steps to the limit: the budget is the
	// run's.
	if e.Steps() > e.maxSteps {
		return false, fmt.Errorf("sim: step limit %d exceeded at t=%v", e.maxSteps, cut)
	}
	if early != nil {
		return false, fmt.Errorf("sim: delay model violated its declared lower bound: copy %d→%d delivers at %v inside the window ending %v",
			early.from, early.en.to, early.en.at, hi)
	}
	e.publish(float64(hi), float64(until))
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

// publish is the rows' share of the cut of the window [m, hi) that delivered
// every copy at < hi and ≤ until. It drops each live row whose copies are all
// delivered now — its finite max below hi and at or before until — and gives
// it back to its sender's partition, then appends the rows the window's
// fan-outs wrote, partition by partition, and moves the watermark to (hi,
// until). Each partition counts the copies published to it as pending from
// here until its gather takes them. Single-threaded, once per window.
func (e *Engine) publish(hi, until float64) {
	b := e.part.board
	live, rest := b.live[:0], math.Inf(1)
	for _, h := range b.live {
		if h.max < hi && h.max <= until {
			e.parts[e.part.owner(int(h.from))].part.recycle(h.at)
			continue
		}
		if h.min >= hi { // not a candidate: no partition scanned it
			rest = min(rest, h.min)
		}
		live = append(live, h)
	}
	clear(b.live[len(live):])
	for _, p := range e.parts {
		pt := p.part
		for _, h := range pt.sent {
			rest = min(rest, h.min)
		}
		live = append(live, pt.sent...)
		clear(pt.sent)
		pt.sent = pt.sent[:0]
		for d, c := range pt.tally {
			e.parts[d].queue.pend += c
		}
		clear(pt.tally)
	}
	for _, p := range e.parts {
		p.queue.peak = max(p.queue.peak, p.queue.len())
	}
	b.live, b.H, b.U, b.rest = live, hi, until, rest
}

// candidates lists the live rows that may have a copy due before hi.
func (b *board) candidates(hi float64) {
	b.cands = b.cands[:0]
	for i := range b.live {
		if b.live[i].min < hi {
			b.cands = append(b.cands, int32(i))
		}
	}
}

// load writes the message of a gathered copy into out.
func (b *board) load(en *entry, out *Message) {
	h := &b.live[^en.ref]
	out.From, out.To, out.Kind = h.from, ProcID(en.to), KindOrdinary
	out.Payload, out.SentAt, out.DeliverAt = h.payload, h.sentAt, clock.Real(en.at)
}

// row returns a fan-out's row, m long, of an n-process system: a free one of
// its size class, or the first of a new slab of that class.
func (pt *partition) row(m, n int) []float64 {
	c := bits.Len(uint(m - 1))
	free := &pt.rows[c]
	if len(*free) == 0 {
		size := min(1<<c, n)
		slab := make([]float64, bcastSlab*size)
		for i := bcastSlab - 1; i >= 0; i-- {
			*free = append(*free, slab[i*size:(i+1)*size:(i+1)*size])
		}
		pt.carved += bcastSlab
	}
	r := (*free)[len(*free)-1]
	*free = (*free)[:len(*free)-1]
	return r[:m]
}

// recycle puts a row back on the free list of its size class.
func (pt *partition) recycle(r []float64) {
	c := bits.Len(uint(len(r) - 1))
	pt.rows[c] = append(pt.rows[c], r)
}

// post keeps a fan-out over [lo, lo+len(row)) whose copies' delivery times
// row holds for the cut to publish: the row, with its finite extremes, goes
// on the sent list and its copies are tallied per destination partition. A
// copy landing inside the window being drained breaks the declared lower
// bound: early keeps the least (at, key) such copy.
func (e *Engine) post(from ProcID, payload any, seq uint64, lo int, row []float64) {
	pt := e.part
	mn, mx := math.Inf(1), math.Inf(-1)
	hi := lo + len(row)
	for d := pt.owner(lo); d <= pt.owner(hi-1); d++ {
		c := 0
		for _, t := range row[max(d*pt.per, lo)-lo : min((d+1)*pt.per, hi)-lo] {
			if t == t {
				c++
				if t < mn {
					mn = t
				}
				if t > mx {
					mx = t
				}
			}
		}
		pt.tally[d] += c
	}
	if dueHi := e.queue.dueHi; mn < dueHi {
		for i, t := range row {
			c := entry{at: t, key: seq | uint64(lo+i), to: int32(lo + i)}
			if l := &pt.early; t < dueHi && (!l.ok || entryLess(&c, &l.en)) {
				*l = earlyCopy{from: from, en: c, ok: true}
			}
		}
	}
	pt.sent = append(pt.sent, bcast{from: from, lo: lo, sentAt: e.now, payload: payload, seq: seq, min: mn, max: mx, at: row})
}

// earlyCopy is a copy landing inside the window it was sent in, with its
// sender; ok marks one found.
type earlyCopy struct {
	from ProcID
	en   entry
	ok   bool
}

// drainWindow is a partition's share of the window [m, hi): it takes the
// STARTs and TIMERs due before hi and at or before until off its timer heap,
// grouped by recipient, then, a tile of owned processes at a time, gathers
// their due events and lets each, in ascending id, receive its own in
// (at, key) order, merged with the TIMERs it sets for inside the window.
// This is the only engine code that runs concurrently: each partition
// touches its own heaps, rows, senders, log and processes, and only reads
// the board. The window log is left in (at, key) order for the replay.
func (e *Engine) drainWindow(hi, until clock.Real) error {
	q := &e.queue
	q.dueHi, q.dueUntil = float64(hi), float64(until)
	e.part.pendMin = math.Inf(1)
	defer e.shut()
	for top := q.timers.peek(); top != nil && q.due(top.at); top = q.timers.peek() {
		q.held = append(q.held, q.timers.pop())
	}
	slices.SortStableFunc(q.held, func(a, b entry) int { return cmp.Compare(a.to, b.to) })
	var m Message
	for lo := 0; lo < e.part.own; lo += gatherTile {
		due := e.gather(lo, min(lo+gatherTile, e.part.own))
		for i, sp := range due {
			if len(sp) == 0 {
				continue
			}
			q.sortDue(sp)
			due[i] = sp[:0]
			for q.wpos < len(q.win) || q.heap.len() > 0 {
				if e.steps >= e.maxSteps {
					return fmt.Errorf("sim: step limit %d exceeded at t=%v", e.maxSteps, e.now)
				}
				e.step(q.popWin(), &m)
			}
		}
	}
	slices.SortStableFunc(e.wlog, func(a, b logEntry) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.key, b.key))
	})
	return nil
}

// gather collects the due events of owned processes base+lo … base+end−1,
// one buffer each: first each one's due STARTs and TIMERs, then, row by row,
// what is due of the part of each candidate row the tile covers — a copy not
// delivered by an earlier window, keyed seq | q under the row's board index
// (ref = ^index). A copy it leaves pending feeds the partition's pendMin.
func (e *Engine) gather(lo, end int) [][]entry {
	q, pt := &e.queue, e.part
	due := pt.due[:end-lo]
	first := int(q.base) + lo
	last := first + len(due)
	for ; q.hpos < len(q.held) && int(q.held[q.hpos].to) < last; q.hpos++ {
		en := q.held[q.hpos]
		due[int(en.to)-first] = append(due[int(en.to)-first], en)
	}
	b := pt.board
	hi, until, dH, dU := q.dueHi, q.dueUntil, b.H, b.U
	pmin, got := pt.pendMin, 0
	for _, c := range b.cands {
		h := &b.live[c]
		a, z := max(first, h.lo), min(last, h.lo+len(h.at))
		if a >= z {
			continue
		}
		seq, ref, d := h.seq|uint64(a), ^c, due[a-first:]
		for j, t := range h.at[a-h.lo : z-h.lo] {
			switch {
			case t < hi && t <= until:
				if !(t < dH && t <= dU) {
					d[j] = append(d[j], entry{at: t, key: seq + uint64(j), ref: ref, to: int32(a + j)})
					got++
				}
			case t < pmin:
				pmin = t
			}
		}
	}
	q.pend -= got
	pt.pendMin = pmin
	return due
}

// initPartition makes s the queue of a partition owning the processes
// [base, base+owned) of an n-process system: room for one process's due
// events in a window — a round's n copies — and for their sort's group
// counts, for a few in-window timers, for the owned processes' STARTs and
// TIMERs, and for the headers of the STARTs and TIMERs in flight.
func (s *sched) initPartition(base, owned, n int) {
	s.mode, s.base = schedPartition, int32(base)
	s.dueHi = math.Inf(-1)
	s.win = make([]entry, 0, n+16)
	s.off = make([]int32, 0, 2*(n+16)+1)
	s.heap.items = make([]entry, 0, 16)
	s.timers.items = make([]entry, 0, 2*owned+16)
	s.held = make([]entry, 0, owned+16)
	s.grow(0, 4*n+16)
}

// hold files a partition's START or TIMER, a NaN delivery time as +Inf. A
// TIMER due in the window being drained is the acting process's own (only a
// process's step sets its timers): it goes to the acting heap, from which
// the drain merges it into the process's due events. Everything else waits
// on the timer heap.
func (s *sched) hold(en entry) {
	if en.at != en.at {
		en.at = math.Inf(1)
	}
	if s.due(en.at) {
		s.heap.push(en)
		return
	}
	s.timers.push(en)
}

// due reports whether an event at t belongs to the window being drained.
func (s *sched) due(t float64) bool { return t < s.dueHi && t <= s.dueUntil }

// sortDue sorts one process's due events sp, at least one, into the window
// by entryLess: a counting sort on their times into about two groups per
// entry, then one insertion pass, which moves only entries that share a
// group. The groups are laid over the ordinary copies' times [lo, hi] (group
// is monotone in the time and clamps what lies outside): a process's own
// timer for later in the round would otherwise stretch them and crowd the
// copies into a few.
func (s *sched) sortDue(sp []entry) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range sp {
		if sp[i].key&entryTimerBit == 0 {
			lo, hi = min(lo, sp[i].at), max(hi, sp[i].at)
		}
	}
	if lo > hi { // timers only
		for i := range sp {
			lo, hi = min(lo, sp[i].at), max(hi, sp[i].at)
		}
	}
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

// shut ends a partition's window. What the window, the acting heap, the
// tile's buffers and the due STARTs and TIMERs still hold — only after the
// step limit stopped the drain — goes back on the timer heap, except the
// rows' copies, which their rows still hold: the watermark moves only at a
// completed window's cut.
func (e *Engine) shut() {
	s := &e.queue
	s.dueHi = math.Inf(-1)
	back := func(ents []entry) {
		for _, en := range ents {
			if en.ref >= 0 {
				s.timers.push(en)
			}
		}
	}
	back(s.win[s.wpos:])
	back(s.heap.items)
	for i, d := range e.part.due {
		back(d)
		e.part.due[i] = d[:0]
	}
	back(s.held[s.hpos:])
	s.win, s.wpos, s.heap.items = s.win[:0], 0, s.heap.items[:0]
	s.held, s.hpos = s.held[:0], 0
}

// ShardedEngine, NewSharded, Stats and ShardStats are vestiges the frozen
// benchmark/replica.go still names; ROADMAP item 6 deletes them with the
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

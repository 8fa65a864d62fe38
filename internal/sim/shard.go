package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"

	"repro/internal/clock"
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
// a broadcast, a multicast or a Send — is one row (bcast), which the cut
// after the send publishes on one board every partition reads: its sender's
// delay-stream state, from which readers redraw the copies' delivery times
// and route them through the stateless channel (a drawn row,
// CounterDelayModel), or, for a delay model that does not declare its draws,
// a copy of the times (a stored row); and its processes' STARTs and TIMERs
// that are not yet due are one heap (partition.timers). A drawn row is
// posted in O(1) (postSpan): no copy is drawn at send, and the row's
// extremes are the span its model declares. Partition 0 is the engine New
// returns; it drives the windows and replays the samples and annotations of
// each window at its cut (clocktable.go). A window runs as: (1) find the
// globally earliest pending event time m, over the timer heaps, the copies
// the partitions left pending and the rows on the board no window has read
// — a lower bound where a row's span is; (2) let every partition,
// concurrently — on Run's goroutine and the crew of workers Run starts once
// (crew.go), each claiming the next partition not yet drained, partition 0
// Run's own — deliver its events in [m, m+L) process by process
// (Engine.drainWindow): it pops its due STARTs and TIMERs and groups them by
// recipient, files the candidate rows by the tiles they overlap (bucket),
// then, a tile of owned processes at a time, hands each one its own and
// reads its due copies off the rows over the tile (gather), a
// CopyReceiver's straight into its batch unless a sender has two candidate
// rows in the window; each process, in ascending id, receives its due
// STARTs and TIMERs in (at, key) order, with any TIMER it sets for inside the
// window merged in, and its due copies between them — a CopyReceiver as one
// unsorted batch per stretch between two of its own events (receiveBatch),
// any other process, and every process of a window in which a sender has
// two candidate rows, one Receive a copy in (at, key) order (sortDue), as is
// the rest of a CopyReceiver's window from a stretch the step limit falls
// inside; (3) join, raise each read row's min to its least pending copy and
// drop the rows with none (settleRows), publish the rows the window sent
// (publish), cut, and repeat. The serial phase at the cut is one pass over
// the board.
//
// Process by process is one execution because a step changes only the
// recipient's state and the buffer (§2.3(6)), and A3 puts every ordinary
// copy sent at t ≥ m at or after t+L ≥ m+L: inside the window the only event
// a step can add for the window is its own process's TIMER. So each
// process's own (at, key)-ordered sequence of due events is what the
// time-major engine delivers it, and the order between processes is
// unobservable. Within one process, a CopyReceiver's ordinary receives set
// no timer, send nothing and move no correction: those from distinct
// senders between two of its STARTs and TIMERs write disjoint state and
// commute, so a batch in any order is that sequence too, with real time at
// its last copy after it. Two copies from one sender do not commute, the
// later one's reading overwriting the earlier's, and a process can take two
// only from a sender with two candidate rows: such a window takes the sorted
// path; so does the rest of a process's window from a stretch the step
// limit falls inside, handed over by receiveBatch. A row's first read (times)
// — in the first window that has it as a candidate, or at Run's horizon
// (checkUnread) — counts the copies the channel lost and checks every copy:
// one below the watermark of the windows already run was sent inside its own
// window, which breaks the declared lower bound, and one outside the row's
// declared span breaks the declaration. Either way Run fails at that cut
// naming the least (at, key) such copy over the partitions — the same error
// for every k — rather than deliver a reordered execution or drop a copy.
// The crew's join is the only synchronization: it returns once every
// partition has, and a panicking Receive is that partition's error
// (drainSafe, at k = 1 too).
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
// What a windowed engine runs is stated once, by Windowable, and checked at
// New (validateWindowed). Samplers and annotation sinks are replayed at the
// cuts; per-delivery observers are not yet implemented (see Engine.Observe).

// partition is what a windowed engine's partition holds beyond the
// time-major engine, which keeps it nil. It is partition id of the engine,
// and owns the own processes [id·per, id·per+own).
//
// A fan-out's header goes on sent, and its copies are counted in tally per
// destination partition, until the cut publishes them on the board. pendMin
// is the least time of a copy the last window's gather left pending, and due
// holds a tile's due events, one buffer per process, carved stride entries
// apart from one array; wide, tiled and tileOff are the window's candidate
// rows filed by tile (bucket), and drawn is the tile's slice of a drawn row,
// redrawn from the stream redraw.
//
// Its events: the window being drained takes those at < dueHi and
// ≤ dueUntil (dueHi is −∞ outside one). timers holds the owned processes'
// STARTs and TIMERs not yet due, held[hpos:] the due ones not yet gathered,
// grouped by recipient, and win[wpos:] the acting process's due events not
// yet delivered, sorted (sortDue, whose group counts off holds) — or, for a
// batch, its STARTs and TIMERs only; pend counts
// the copies of published rows not yet gathered. The acting process's
// in-window timers sit on the engine's heap (sched.heap), and the headers of
// all its STARTs and TIMERs in the engine's header store.
type partition struct {
	// The tile's batches, one per process (tileBatch) — a partition that
	// owns no CopyReceiver has no room for them — and drawn lead the
	// struct, which starts on a cache line: gather writes them for every
	// copy it takes.
	tb    [gatherTile]tileBatch
	drawn [gatherTile]float64

	id, per, own int
	base         int // the first owned process

	board   *board
	sent    []bcast
	tally   []int
	pendMin float64
	due     [][]entry
	stride  int
	wide    []int32
	tiled   []int32
	tileOff []int32
	redraw  RNG

	dueHi, dueUntil float64
	timers          entryHeap
	held            []entry
	hpos            int
	win             []entry
	wpos            int
	off             []int32
	pend            int

	// stray is the least (at, key) copy a row's first read found breaking
	// the model's declarations.
	stray strayCopy

	// pending[c] is the least time of the copies of candidate row c (its
	// board index) the window's gathers left pending.
	pending []float64
}

// tileBatch is a tile process's copies in the form ReceiveCopies takes:
// the senders and times of n copies, from[:n] and at[:n], unsorted, and the
// last of them in (at, key) order. cr is the process as a CopyReceiver, nil
// when it is none; on marks a window in which gather writes its copies here
// rather than as entries — one in which no sender has two candidate rows
// (board.repeats).
type tileBatch struct {
	cr   CopyReceiver
	on   bool
	n    int
	from []ProcID
	at   []clock.Real
	last entry
}

// strayCopy is a copy a row's first read found breaking the delay model's
// declarations: its time outside the row's extremes, or else, early, below
// the watermark of the windows already run — inside the window it was sent
// in. It holds the copy (en, whose at orders a NaN last), its time t, and the
// row's sender, send time and extremes; ok marks one found.
type strayCopy struct {
	en        entry
	t         float64
	from      ProcID
	sentAt    clock.Real
	min, max  float64
	early, ok bool
}

// owner returns the partition that owns process q.
func (pt *partition) owner(q int) int { return q / pt.per }

// bcast is one fan-out over [lo, lo+m) on a windowed engine: what its copies
// share, and their delivery times, in one of two forms. A drawn row (at nil)
// keeps s0, its sender's delay stream before the fan-out, and its readers
// redraw and route the times (times). A stored row is at, a copy of the m
// times — (*at)[q−lo] the copy to q's. Either way a copy the channel lost,
// or (stored only) badCopy refused, has time NaN. Copy q's queue key is
// seq | q. min and max bound the finite times of the copies not yet
// delivered: the model's declared span sentAt + Span on a drawn row, or the
// exact extremes of a stored one. read marks a row whose copies its first
// read (times) has checked and, on a drawn row, counted lost. The cut after
// a window that read it raises min to the least time of its copies still
// pending (settleRows). The header is 80 bytes either way.
type bcast struct {
	from, lo, m int32
	read        bool
	sentAt      clock.Real
	payload     any
	seq         uint64
	min, max    float64
	at          *[]float64
	s0          uint64
}

// board is the fan-outs in flight, shared by the partitions and read-only
// while a window runs: live is every published row with a copy not yet
// delivered, cands the window's candidates (the live rows with min < hi).
// (H, U) is the last completed window's (hi, until): every copy at < H and
// ≤ U is delivered. rest is the least min of the live rows no partition
// scanned in that window. In a run with CopyReceivers, repeats marks a
// window in which one sender has two candidate rows — the only way a
// process can take two copies from one sender in it; otherwise rowOf[q] is
// sender q's candidate row, if any. seen[q] = mark when q has one.
type board struct {
	live    []bcast
	cands   []int32
	H, U    float64
	rest    float64
	repeats bool
	mark    int32
	seen    []int32
	rowOf   []int32
}

const (
	// gatherTile is how many processes gather reads the rows for at once:
	// a tile's slice of a row is a few cache lines, where one process at a
	// time would touch each row's page once per process.
	gatherTile = 16
	// A candidate row over more than wideTiles tiles of a partition (a
	// broadcast) is read by every tile; a narrower one by those it overlaps.
	wideTiles = 3
)

// validateWindowed is validate's block for Shards ≠ 0.
func validateWindowed(cfg Config) error {
	k, n := cfg.Shards, len(cfg.Procs)
	switch {
	case k < 1:
		return fmt.Errorf("sim: %d shards", k)
	case k > n:
		return fmt.Errorf("sim: %d shards for %d processes", k, n)
	}
	return Windowable(cfg)
}

// Windowable is the one statement of what a windowed engine runs: it returns
// why one cannot run cfg with observers registered, or nil when it can. The
// window needs no adversary (it reads local times at each send, and
// arrivals, in global order), no timeline (its actions mutate
// global routing and delay state mid-window), a stateless channel (FullMesh
// or LossyLinks, whose Route is a pure read that the partitions may make at
// once when they redraw rows, Engine.times; Ether's contention bookkeeping
// is inherently sequential), a positive lookahead δ−ε (with none no window
// can make progress), and no per-delivery observer (Observe). New checks cfg
// with it when Config.Shards ≥ 1; a caller may ask it first to run
// Shards = 0 as 1.
func Windowable(cfg Config, observers ...Observer) error {
	switch {
	case cfg.Adversary != nil:
		return errWindowAdversary
	case len(cfg.Timeline) > 0:
		return errWindowTimeline
	case cfg.Delay == nil:
		return errNilDelay
	}
	switch cfg.Channel.(type) {
	case nil, FullMesh, LossyLinks:
	default:
		return fmt.Errorf("sim: sharded execution requires a stateless channel, got %T", cfg.Channel)
	}
	if d, eps := cfg.Delay.Bounds(); !(d-eps > 0) {
		return fmt.Errorf("sim: sharded execution needs positive lookahead δ−ε, got δ=%v ε=%v", d, eps)
	}
	for _, o := range observers {
		if err := windowObserver(o); err != nil {
			return err
		}
	}
	return nil
}

// Windowable's fixed refusals, made once: the run path asks on every run.
var (
	errWindowAdversary = errors.New("sim: sharded execution does not support an adversary (it reads local times at each send, and arrivals, in global order)")
	errWindowTimeline  = errors.New("sim: sharded execution does not support a timeline (actions mutate global routing/delay state mid-window)")
	errNilDelay        = errors.New("sim: nil delay model")
)

// windowObserver refuses a per-delivery observer, which a windowed engine
// does not yet call.
func windowObserver(o Observer) error {
	if _, ok := o.(DeliveryObserver); ok {
		return fmt.Errorf("sim: per-delivery observer %T is not yet implemented on a windowed engine (Config.Shards ≥ 1); Sampler and AnnotationSink observers are", o)
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
	// The board's candidates — room for a round's fan-outs and a few more
	// (a two-faced process sends two) — and seen and rowOf for
	// CopyReceivers' batches.
	size := rowRoom(n)
	if slices.ContainsFunc(cfg.Procs, isCopyReceiver) {
		size += 2 * n
	}
	ids := make([]int32, size)
	b := &board{H: math.Inf(-1), U: math.Inf(-1), rest: math.Inf(1), cands: ids[:0:rowRoom(n)]}
	if size > rowRoom(n) {
		b.seen, b.rowOf = ids[rowRoom(n):rowRoom(n)+n], ids[rowRoom(n)+n:]
	}
	parts := make([]*Engine, k)
	for s := range parts {
		lo, hi := min(s*per, n), min((s+1)*per, n)
		tile := min(gatherTile, hi-lo)
		batch := 0 // room for a tile's batches — n senders and times a process — on a CopyReceiver's partition
		if slices.ContainsFunc(cfg.Procs[lo:hi], isCopyReceiver) {
			batch = tile * n
		}
		p, err := newBase(cfg, batch)
		if err != nil {
			return nil, err
		}
		pt := &partition{id: s, per: per, own: hi - lo, base: lo, board: b, tally: make([]int, k), pendMin: math.Inf(1)}
		pt.due = make([][]entry, tile)
		p.part = pt
		p.initStores(n, batch)
		p.start(cfg.StartAt)
		parts[s] = p
	}
	d, eps := cfg.Delay.Bounds()
	e := parts[0]
	e.parts, e.lookahead = parts, d-eps
	e.runHeap = make([]logRun, 0, n+4)
	return e, nil
}

// isCopyReceiver reports whether p batches its ordinary receives.
func isCopyReceiver(p Process) bool { _, ok := p.(CopyReceiver); return ok }

// rowRoom is how many rows in flight a windowed engine's stores start with
// room for: a round's fan-outs and a few more.
func rowRoom(n int) int { return n + 8 }

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
		if top := p.part.timers.peek(); top != nil {
			m = min(m, top.at)
		}
	}
	return clock.Real(m), m < math.Inf(1)
}

// runWindows is Run on a windowed engine: windows until no partition holds
// an event at or before until, or the step limit is hit.
func (e *Engine) runWindows(until clock.Real) error {
	e.enter()
	if helpers := min(len(e.parts), runtime.GOMAXPROCS(0)) - 1; helpers > 0 {
		e.crew = e.hire(helpers)
		defer func() { e.crew.dismiss(); e.crew = nil }()
	}
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
		if err := e.checkUnread(); err != nil {
			return false, err
		}
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
	if e.crew != nil {
		err = e.crew.drain(hi, until, cut)
	} else { // k = 1, one core, or a window stepped outside Run: one after another
		for i, p := range e.parts {
			if perr := p.drainSafe(i, hi, until, cut); err == nil {
				err = perr
			}
		}
	}
	if err != nil {
		return false, err
	}
	for _, p := range e.parts {
		if p.bad != nil {
			return false, p.bad
		}
	}
	// Each partition held only its own steps to the limit: the budget is the
	// run's.
	if e.Steps() > e.maxSteps {
		return false, fmt.Errorf("sim: step limit %d exceeded at t=%v", e.maxSteps, cut)
	}
	if err := e.strayErr(); err != nil {
		return false, err
	}
	e.publish(float64(hi), float64(until))
	count(censusWindows)
	if e.part.board.repeats {
		count(censusRepeats)
	}
	e.windows++
	return true, e.replay(from, cut)
}

// drainSafe is partition i's share of the window [m, hi) cut at cut, with
// a panicking Receive turned into the partition's named error and stack.
func (e *Engine) drainSafe(i int, hi, until, cut clock.Real) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("sim: shard %d panicked: %v\n%s", i, v, debug.Stack())
		}
	}()
	err = e.drainWindow(hi, until)
	if err == nil && e.now < cut {
		e.now = cut
	}
	return err
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

// logRun is one process's stretch of a partition's window log, wlog[pos:end]
// of partition part, in (at, key) order: (at, key) is its next entry's.
type logRun struct {
	at       clock.Real
	key      uint64
	pos, end int32
	part     int32
}

func runLess(a, b *logRun) bool { return a.at < b.at || a.at == b.at && a.key < b.key }

// replay is the sampling rule at the cut of the window [from, cut): it steps
// partition 0's rows through the partitions' logs merged in (at, key) order —
// each log is a run per process that acted, in its delivery order, and one
// delivery's entries are one run's — with Now at each entry's instant. The
// runs merge on a min-heap of their heads, so no entry moves. It samples at
// every edge and around every change, and hands each annotation to the sinks
// with the emitter's row as at emission. At the cut every row must hold its
// process's correction; otherwise a correction moved outside its own Receive
// and no later delivery of its process picked the move up.
func (e *Engine) replay(from, cut clock.Real) error {
	tb := &e.tbl
	e.now = from
	h := e.runHeap[:0]
	for i, p := range e.parts {
		for r, pos := range p.runs {
			end := int32(len(p.wlog))
			if r+1 < len(p.runs) {
				end = p.runs[r+1]
			}
			if pos < end {
				en := &p.wlog[pos]
				h = append(h, logRun{at: en.at, key: en.key, pos: pos, end: end, part: int32(i)})
			}
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftRun(h, i)
	}
	for len(h) > 0 {
		r := &h[0]
		en := &e.parts[r.part].wlog[r.pos]
		if r.pos++; r.pos < r.end {
			next := &e.parts[r.part].wlog[r.pos]
			r.at, r.key = next.at, next.key
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftRun(h, 0)
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
	e.runHeap = h
	for _, p := range e.parts {
		clear(p.wlog)
		p.wlog, p.runs = p.wlog[:0], p.runs[:0]
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

// siftRun restores the min-heap order of h below i.
func siftRun(h []logRun, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && runLess(&h[c+1], &h[c]) {
			c++
		}
		if !runLess(&h[c], &h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// publish is the rows' share of the cut of the window [m, hi) that delivered
// every copy at < hi and ≤ until. It drops each live row whose copies are all
// delivered now — its finite max below hi and at or before until — then
// appends the rows the window's fan-outs wrote, partition by partition, and
// moves the watermark to (hi, until). Each partition counts the copies
// published to it as pending from here until its gather takes them.
// Single-threaded, once per window.
func (e *Engine) publish(hi, until float64) {
	b := e.part.board
	e.settleRows()
	live, rest := b.live[:0], math.Inf(1)
	for _, h := range b.live {
		if h.max < hi && h.max <= until {
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
			e.parts[d].part.pend += c
		}
		clear(pt.tally)
	}
	for _, p := range e.parts {
		p.queue.peak = max(p.queue.peak, p.part.len(&p.queue))
	}
	b.live, b.H, b.U, b.rest = live, hi, until, rest
}

// settleRows raises each candidate row's min to the least time of its copies
// the window's gathers left pending, over the partitions, and marks it
// read; a row with none pending gets max −∞, which publish drops. A row read
// once is a candidate again only while a copy of it may be due, as a row
// timed at send is, and stays on the board no longer than its last copy.
func (e *Engine) settleRows() {
	b := e.part.board
	for _, c := range b.cands {
		mn := math.Inf(1)
		for _, p := range e.parts {
			mn = min(mn, p.part.pending[c])
		}
		h := &b.live[c]
		if h.min, h.read = mn, true; mn == math.Inf(1) {
			h.max = math.Inf(-1)
		}
	}
}

// candidates lists the live rows that may have a copy due before hi, and
// marks whether one sender has two of them (repeats), filing each sender's
// row under rowOf otherwise. A mark left from 2³² windows back can only
// mark a repeat that is not there: the path it sends copies down is exact
// either way.
func (b *board) candidates(hi float64) {
	b.cands, b.repeats = b.cands[:0], false
	b.mark++
	for i := range b.live {
		if h := &b.live[i]; h.min < hi {
			b.cands = append(b.cands, int32(i))
			if b.seen != nil { // a run with CopyReceivers
				b.repeats = b.repeats || b.seen[h.from] == b.mark
				b.seen[h.from], b.rowOf[h.from] = b.mark, int32(i)
			}
		}
	}
}

// checkUnread gives the rows no window has read their first read when Run
// reaches its horizon: a copy a wrong declaration put at or before the
// horizon would otherwise go undelivered unnoticed, and the copies the
// channel lost are counted as the time-major engine counts them by then.
// Each such row is read once, here, tile by tile on the partition that owns
// the tile's processes, and marked read, so a later Run neither reads nor
// counts it again.
func (e *Engine) checkUnread() error {
	b, per := e.part.board, e.part.per
	for i := range b.live {
		if h := &b.live[i]; !h.read {
			for a, end := int(h.lo), int(h.lo+h.m); a < end; {
				z := min(a+gatherTile, end, (a/per+1)*per)
				e.parts[a/per].times(h, a, z)
				a = z
			}
			h.read = true
		}
	}
	return e.strayErr()
}

// strayErr is Run's error for the least (at, key) copy, over the
// partitions, that a row's first read found breaking the model's
// declarations — the same for every partition count — or nil when there is
// none.
func (e *Engine) strayErr() error {
	var c *strayCopy
	for _, p := range e.parts {
		if s := &p.part.stray; s.ok && (c == nil || entryLess(&s.en, &c.en)) {
			c = s
		}
	}
	switch {
	case c == nil:
		return nil
	case c.early:
		return fmt.Errorf("sim: delay model violated its declared lower bound: copy %d→%d delivers at %v inside the window ending %v",
			c.from, c.en.to, c.t, e.part.board.H)
	}
	return fmt.Errorf("sim: delay model %T sent copy %d→%d at t=%v for delivery at t=%v, outside the span [%v, %v] it declared for the fan-out (sim.CounterDelayModel contract)",
		e.delay, c.from, c.en.to, c.sentAt, c.t, c.min, c.max)
}

// strayed keeps copy to of row h, at time t outside h's extremes or below
// the watermark's hi (board.H), if it is the least (at, key) such copy the
// partition has found; a copy outside the extremes is a stray even below the
// watermark. Every copy sent in a window lands at or after the window's hi,
// so one below it on its row's first read broke the lower bound, whether or
// not the window's until covered it.
func (pt *partition) strayed(h *bcast, to int, t float64) {
	c := strayCopy{en: entry{at: t, key: h.seq | uint64(to), to: int32(to)}, t: t, from: ProcID(h.from), sentAt: h.sentAt, min: h.min, max: h.max,
		early: t >= h.min && t <= h.max, ok: true}
	if t != t {
		c.en.at = math.Inf(1)
	}
	if s := &pt.stray; !s.ok || entryLess(&c.en, &s.en) {
		*s = c
	}
}

// load writes the message of a gathered copy into out.
func (b *board) load(en *entry, out *Message) {
	h := &b.live[^en.ref]
	out.From, out.To, out.Kind = ProcID(h.from), ProcID(en.to), KindOrdinary
	out.Payload, out.SentAt, out.DeliverAt = h.payload, h.sentAt, clock.Real(en.at)
}

// times returns the delivery times of copies a … z−1 (at most a tile, all
// owned by e's partition) of fan-out h: its stored row's, or, for a drawn
// row, the times its fan-out stands for, drawn into the partition's drawn
// buffer — a copy of the sender's stream skipped to copy a's first draw runs
// the delay model's Sample copy by copy, or its SampleAll for the tile, and
// each time is formed as fanOut forms it: inline on the full mesh, and
// otherwise routed by the channel, NaN for a copy it loses (Windowable
// admits only channels the partitions may route through at once). The first
// read of a row (not yet read) counts each copy the channel lost there as
// lost, not sent and not pending, and hands strayed every time outside the
// row's extremes or below the watermark board.H. A read row's times were
// checked then, and a redraw repeats them.
func (e *Engine) times(h *bcast, a, z int) []float64 {
	lo, pt := int(h.lo), e.part
	mn, mx := max(h.min, pt.board.H), h.max
	if h.read {
		mn, mx = math.Inf(-1), math.Inf(1)
	}
	if h.at != nil {
		out := (*h.at)[a-lo : z-lo]
		for i, t := range out {
			if t < mn { // a stored row's copies lie within its extremes
				pt.strayed(h, a+i, t)
			}
		}
		return out
	}
	countN(censusRedrawn, z-a)
	from, now, rng := ProcID(h.from), h.sentAt, &pt.redraw
	*rng = RNG{h.s0}.skip(uint64(e.draws * (a - lo)))
	out := pt.drawn[:z-a]
	if e.batch != nil {
		e.batch.SampleAll(from, len(out), now, rng, out)
	} else {
		for i := range out {
			out[i] = e.delay.Sample(from, ProcID(a+i), now, rng)
		}
	}
	if !e.mesh {
		for i, d := range out {
			at, ok := e.channel.Route(from, ProcID(a+i), now, d)
			t := float64(at)
			switch {
			case !ok:
				t = math.NaN()
				if !h.read {
					e.msgsLost++
					e.msgsSent--
					pt.pend--
				}
			case !(t >= mn && t <= mx):
				pt.strayed(h, a+i, t)
			}
			out[i] = t
		}
		return out
	}
	for i, d := range out {
		t := float64(now + clock.Real(d))
		if !(t >= mn && t <= mx) {
			pt.strayed(h, a+i, t)
		}
		out[i] = t
	}
	return out
}

// carveTile gives the tile's buffers, empty between gathers, stride
// entries each from one array. A partition has none until its first gather
// with events due.
func (pt *partition) carveTile(stride int) {
	buf := make([]entry, len(pt.due)*stride)
	for i := range pt.due {
		pt.due[i] = buf[i*stride : i*stride : (i+1)*stride]
	}
	pt.stride = stride
}

// post keeps a fan-out over [lo, lo+len(row)) of a model that declares no
// draws, which fanOut sampled at send, in the engine's delays buffer, for the
// cut to publish: its stored row, a copy of row, goes on the sent list
// under a header with the times' finite extremes, and its copies are
// tallied per destination partition.
func (e *Engine) post(from ProcID, payload any, seq uint64, lo int, row []float64) {
	pt := e.part
	mn, mx := math.Inf(1), math.Inf(-1)
	hi := lo + len(row)
	for d := pt.owner(lo); d <= pt.owner(hi-1); d++ {
		for _, t := range row[max(d*pt.per, lo)-lo : min((d+1)*pt.per, hi)-lo] {
			if t == t {
				pt.tally[d]++
				mn, mx = min(mn, t), max(mx, t)
			}
		}
	}
	count(censusStored)
	at := slices.Clone(row)
	pt.sent = append(pt.sent, bcast{from: int32(from), lo: int32(lo), m: int32(len(row)), sentAt: e.now, payload: payload, seq: seq, min: mn, max: mx, at: &at})
}

// postSpan posts fanOut's fan-out from from over [lo, hi) as a drawn row
// in O(1), on a partition with a model that declares its draws and span
// (CounterDelayModel): the row's extremes are the span, its sender's stream
// skips the m·DrawsPerCopy draws its copies take, and its m copies are
// counted sent and tallied per destination partition by arithmetic — the
// row's first read takes back those the channel loses (times). No copy is
// drawn. A span that is not a finite range at or after now is the run's
// error, and posts nothing.
func (e *Engine) postSpan(from ProcID, lo, hi int, payload any) {
	pt, now := e.part, e.now
	mn, mx := e.counter.Span(from, ProcID(lo), ProcID(hi), now)
	a, z := float64(now+clock.Real(mn)), float64(now+clock.Real(mx))
	if !(a >= float64(now) && a <= z && z <= math.MaxFloat64) {
		if e.bad == nil {
			e.bad = fmt.Errorf("sim: delay model %T declared the span [%v, %v] for a fan-out from %d at t=%v, not a finite range at or after the send (sim.CounterDelayModel contract)",
				e.delay, mn, mx, from, now)
		}
		return
	}
	s, m := &e.senders[from], hi-lo
	pt.sent = append(pt.sent, bcast{from: int32(from), lo: int32(lo), m: int32(m), sentAt: now, payload: payload,
		seq: e.packSeq(from, s.sidx, 0), min: a, max: z, s0: s.rng.state})
	s.sidx++
	s.rng = s.rng.skip(uint64(e.draws * m))
	e.msgsSent += int64(m)
	for d := pt.owner(lo); d <= pt.owner(hi-1); d++ {
		pt.tally[d] += min((d+1)*pt.per, hi) - max(d*pt.per, lo)
	}
}

// drainWindow is a partition's share of the window [m, hi): it takes the
// STARTs and TIMERs due before hi and at or before until off its timer heap,
// grouped by recipient, then, a tile of owned processes at a time, gathers
// their due events and lets each, in ascending id, receive its own in
// (at, key) order, merged with the TIMERs it sets for inside the window — a
// CopyReceiver, unless a sender has two candidate rows in the window
// (board.repeats), with its copies in batches between them (receiveBatch),
// which hands back what is left of its window when the step limit falls
// inside it.
// This is the only engine code that runs concurrently: each partition
// touches its own heaps, rows, senders, log and processes, and only reads
// the board. The window log is left in (at, key) order for the replay.
func (e *Engine) drainWindow(hi, until clock.Real) error {
	q, pt := &e.queue, e.part
	pt.dueHi, pt.dueUntil = float64(hi), float64(until)
	pt.pendMin = math.Inf(1)
	defer e.shut()
	for top := pt.timers.peek(); top != nil && pt.inWindow(top.at); top = pt.timers.peek() {
		pt.held = append(pt.held, pt.timers.pop())
	}
	pt.groupHeld()
	pt.bucket()
	pt.pending = slices.Grow(pt.pending[:0], len(pt.board.live))[:len(pt.board.live)]
	for _, c := range pt.board.cands {
		pt.pending[c] = math.Inf(1)
	}
	var m Message
	for lo := 0; lo < pt.own; lo += gatherTile {
		due := e.gather(lo, min(lo+gatherTile, pt.own))
		for i, sp := range due {
			tb := &pt.tb[i]
			if len(sp) == 0 && tb.n == 0 {
				continue
			}
			due[i] = sp[:0]
			if r := int32(len(e.wlog)); e.mirror != nil && (len(e.runs) == 0 || e.runs[len(e.runs)-1] != r) {
				e.runs = append(e.runs, r) // the last run, if empty, is this one's
			}
			ok := false
			switch {
			case tb.cr == nil:
				count(censusPerCopy)
			case tb.on:
				count(censusBatched)
				sp, ok = e.receiveBatch(tb.cr, sp, tb, &m)
			default:
				count(censusRepeated)
			}
			if ok {
				continue
			}
			pt.sortDue(sp)
			for pt.wpos < len(pt.win) || q.heap.len() > 0 {
				if e.steps >= e.maxSteps {
					return fmt.Errorf("sim: step limit %d exceeded at t=%v", e.maxSteps, e.now)
				}
				e.step(pt.next(&q.heap), &m)
			}
		}
	}
	return nil
}

// The census counts (census_test.go): process-windows — a process's due
// events in one window — by how the partition delivered them, as
// ReceiveCopies batches between its own events, one step each because a
// sender has two candidate rows in the window, and one step each because
// its process is not a CopyReceiver; the fan-outs a partition kept as
// stored rows; the copies a partition sampled at send and the copies it
// redrew; the windows, and those in which a sender had two candidate rows.
const (
	censusBatched = iota
	censusRepeated
	censusPerCopy
	censusStored
	censusSampled
	censusRedrawn
	censusWindows
	censusRepeats
	censusKinds
)

// census holds the counts. It is nil outside the package's own tests, which
// set it (export_test.go).
var census *[censusKinds]atomic.Int64

func count(kind int) { countN(kind, 1) }

func countN(kind, c int) {
	if census != nil {
		census[kind].Add(int64(c))
	}
}

// receiveBatch delivers the acting process's due events: its STARTs and
// TIMERs own, which came off the timer heap in (at, key) order, and those it
// sets for inside the window, one step each in that order, and between two
// of them the copies of its batch tb, as gather wrote it, due before the
// later as one ReceiveCopies. The copies after the last of its events hold
// the last copy of all: an event after it splits nothing off. Where the step limit falls inside a stretch, or on the event after
// it, it delivers nothing more and returns what is left, its own events
// before its copies, in own's buffer, for the sorted path (sortDue): each
// copy left of the stretch precedes every own event still pending, so the
// limit fires there as it would have here.
func (e *Engine) receiveBatch(cr CopyReceiver, own []entry, tb *tileBatch, m *Message) (rest []entry, done bool) {
	q, pt := &e.queue, e.part
	pt.win, pt.wpos = append(pt.win[:0], own...), 0
	from, at, last := tb.from[:tb.n], tb.at[:tb.n], tb.last
	for {
		bound, k, seg := pt.peekNext(&q.heap), len(at), last
		if bound != nil && entryLess(bound, &last) {
			k, seg = e.split(from, at, bound, last.to)
		}
		if e.steps+k > e.maxSteps || bound != nil && e.steps+k == e.maxSteps {
			rest = append(own[:0], pt.win[pt.wpos:]...)
			for j := range at {
				rest = append(rest, e.batchCopy(from[j], at[j], last.to))
			}
			return rest, false
		}
		if k > 0 {
			e.receiveCopies(cr, from[:k], at[:k], seg)
		}
		from, at = from[k:], at[k:]
		if bound == nil {
			return nil, true
		}
		e.step(pt.next(&q.heap), m)
	}
}

// batchCopy returns the copy from sender q at time at to process to as an
// entry, rebuilt from the one candidate row q has in the window
// (board.rowOf).
func (e *Engine) batchCopy(q ProcID, at clock.Real, to int32) entry {
	c := e.part.board.rowOf[q]
	return entry{at: float64(at), key: e.part.board.live[c].seq | uint64(to), ref: ^c, to: to}
}

// split moves the copies of a batch to process to due before bound — with
// their senders and times — to the front, and returns how many there are and
// the last of them in (at, key) order.
func (e *Engine) split(from []ProcID, at []clock.Real, bound *entry, to int32) (k int, last entry) {
	for j := range at {
		if float64(at[j]) > bound.at {
			continue
		}
		if c := e.batchCopy(from[j], at[j], to); entryLess(&c, bound) {
			from[j], from[k] = from[k], from[j]
			at[j], at[k] = at[k], at[j]
			if k++; k == 1 || entryLess(&last, &c) {
				last = c
			}
		}
	}
	return k, last
}

// receiveCopies is the steps of copies from distinct senders from, at times
// at, as one ReceiveCopies: real time moves to, and the log keys by, the
// last of them.
func (e *Engine) receiveCopies(cr CopyReceiver, from []ProcID, at []clock.Real, last entry) {
	p := ProcID(last.to)
	e.now, e.key, e.ver, e.steps = clock.Real(last.at), last.key, e.ver+1, e.steps+len(at)
	e.ctx.pid, e.acting, e.ctx.copies = p, p, true
	cr.ReceiveCopies(&e.ctx, from, at)
	e.acting, e.ctx.copies = actingNone, false
	e.settle(p)
}

// peekNext returns the acting process's next START or TIMER, as next would
// take it, or nil when none is left.
func (pt *partition) peekNext(h *entryHeap) *entry {
	top := h.peek()
	if pt.wpos < len(pt.win) && (top == nil || entryLess(&pt.win[pt.wpos], top)) {
		return &pt.win[pt.wpos]
	}
	return top
}

// next removes and returns the acting process's next event: the smaller of
// its sorted due events' head and the top of its in-window timers h; one of
// them must hold an entry.
func (pt *partition) next(h *entryHeap) entry {
	if pt.wpos == len(pt.win) {
		return h.pop()
	}
	w := &pt.win[pt.wpos]
	if top := h.peek(); top != nil && entryLess(top, w) {
		return h.pop()
	}
	pt.wpos++
	return *w
}

// gather collects the due events of owned processes base+lo … base+end−1,
// one buffer each: first each one's due STARTs and TIMERs, then, row by row,
// what is due of the part of each candidate row over the tile (bucket) — a
// copy not delivered by an earlier window (on a row's first read, one below
// their watermark is a stray: times). A CopyReceiver's copies go to its batch
// (tileBatch) as sender and time, with the last of them, when no sender has
// two candidate rows in the window — the only batches there are; every other
// copy is an entry
// keyed seq | q under the row's board index (ref = ^index). The least time
// of a row's copies it leaves pending is the row's pending min, and feeds
// the partition's pendMin. A process takes at most one copy a row, so the
// buffers are first given room for the most due STARTs and TIMERs one
// process of the tile has and, unless every process of the tile batches,
// for a copy of each row over the tile: sized by the traffic, not by n. A
// batch has room for a copy from every sender.
func (e *Engine) gather(lo, end int) [][]entry {
	pt := e.part
	due := pt.due[:end-lo]
	first := pt.base + lo
	last := first + len(due)
	tile := lo / gatherTile
	narrow := pt.tiled[pt.tileOff[tile]:pt.tileOff[tile+1]]
	held, most := pt.hpos, 0 // the tile's due STARTs and TIMERs; most a process's
	for run := 0; held < len(pt.held) && int(pt.held[held].to) < last; held++ {
		if run++; held == pt.hpos || pt.held[held].to != pt.held[held-1].to {
			run = 1
		}
		most = max(most, run)
	}
	b := pt.board
	n := len(e.procs)
	need, least := most, 4 // a batching tile's entries are its own few events
	for i := range due {
		tb := &pt.tb[i]
		tb.cr, _ = e.procs[first+i].(CopyReceiver)
		tb.on = tb.cr != nil && !b.repeats
		tb.n = 0
		if !tb.on {
			need, least = most+len(pt.wide)+len(narrow), min(n, 28)+4
		}
	}
	if need > pt.stride {
		// Carved when first needed, and then only when a tile needs more:
		// at twice the need up to n+4 (a flat mesh needs about a row per
		// process, which a partition's first full window shows), and, where
		// copies are entries, no less than a small system's n+4.
		pt.carveTile(max(need, min(2*need, n+4), least))
	}
	for ; pt.hpos < held; pt.hpos++ {
		en := pt.held[pt.hpos]
		due[int(en.to)-first] = append(due[int(en.to)-first], en)
	}
	hi, until, dH, dU := pt.dueHi, pt.dueUntil, b.H, b.U
	got := 0
	for _, rows := range [2][]int32{pt.wide, narrow} {
		for _, c := range rows {
			h := &b.live[c]
			a, z := max(first, int(h.lo)), min(last, int(h.lo+h.m))
			if a >= z {
				continue
			}
			from, seq, ref, d := ProcID(h.from), h.seq|uint64(a), ^c, due[a-first:]
			rlo := pt.pending[c]
			for j, t := range e.times(h, a, z) {
				switch {
				case t < hi && t <= until:
					if t < dH && t <= dU {
						continue // delivered by an earlier window
					}
					got++
					key, tb := seq+uint64(j), &pt.tb[a-first+j]
					if !tb.on {
						d[j] = append(d[j], entry{at: t, key: key, ref: ref, to: int32(a + j)})
						continue
					}
					k := tb.n
					tb.from[k], tb.at[k], tb.n = from, clock.Real(t), k+1
					if k == 0 || t > tb.last.at || t == tb.last.at && key > tb.last.key {
						tb.last = entry{at: t, key: key, ref: ref, to: int32(a + j)}
					}
				case t < rlo: // pending; NaN, a lost copy, is not
					rlo = t
				}
			}
			pt.pending[c] = rlo
			pt.pendMin = min(pt.pendMin, rlo)
		}
	}
	pt.pend -= got
	return due
}

// bucket files the window's candidate rows by the tiles of the partition
// that they overlap: a row over at most wideTiles tiles on each of their
// lists — tile t's is tiled[tileOff[t]:tileOff[t+1]] — and a wider one on
// wide, which every tile reads. A tile then reads the rows over it, not
// every candidate: two-tier rows are a cluster wide.
func (pt *partition) bucket() {
	b, base := pt.board, pt.base
	nt := (pt.own + gatherTile - 1) / gatherTile
	if nt <= wideTiles { // a few tiles: every row is wide
		pt.wide, pt.tileOff = b.cands, pt.tileOff[:nt+1]
		return
	}
	off := slices.Grow(pt.tileOff[:0], nt+2)[:nt+2]
	clear(off)
	wide, end := pt.wide[:0], base+pt.own
	for _, c := range b.cands {
		h := &b.live[c]
		a, z := max(base, int(h.lo)), min(end, int(h.lo+h.m))
		if a >= z {
			continue
		}
		t0, t1 := (a-base)/gatherTile, (z-1-base)/gatherTile
		if t1-t0 >= wideTiles {
			wide = append(wide, c)
			continue
		}
		for t := t0; t <= t1; t++ {
			off[t+2]++
		}
	}
	for t := 2; t < len(off); t++ {
		off[t] += off[t-1]
	}
	tiled := slices.Grow(pt.tiled[:0], int(off[nt+1]))[:off[nt+1]]
	for _, c := range b.cands {
		h := &b.live[c]
		a, z := max(base, int(h.lo)), min(end, int(h.lo+h.m))
		if a >= z {
			continue
		}
		if t0, t1 := (a-base)/gatherTile, (z-1-base)/gatherTile; t1-t0 < wideTiles {
			for t := t0 + 1; t <= t1+1; t++ {
				tiled[off[t]] = c
				off[t]++
			}
		}
	}
	pt.wide, pt.tiled, pt.tileOff = wide, tiled, off
}

// groupHeld orders the due STARTs and TIMERs by recipient, keeping each
// recipient's in the (at, key) order they came off the timer heap: one
// counting pass over the recipients they name, into the window array, which
// then trades places with held.
func (pt *partition) groupHeld() {
	h := pt.held
	if len(h) < 2 {
		return
	}
	lo, hi := h[0].to, h[0].to
	for _, en := range h[1:] {
		lo, hi = min(lo, en.to), max(hi, en.to)
	}
	off := slices.Grow(pt.off[:0], int(hi-lo)+1)[:hi-lo+1]
	clear(off)
	for _, en := range h {
		off[en.to-lo]++
	}
	sum := int32(0)
	for i, c := range off {
		off[i] = sum
		sum += c
	}
	out := slices.Grow(pt.win[:0], len(h))[:len(h)]
	for _, en := range h {
		out[off[en.to-lo]] = en
		off[en.to-lo]++
	}
	pt.off, pt.held, pt.win = off, out, h[:0]
}

// initStores gives partition engine e and its queue their stores for a
// partition of an n-process system. They start in one array per element
// type, sized to a round's traffic: room for one process's due events in a
// window — a round's n copies — and for their sort's group counts, for a
// few in-window timers, for the owned processes' STARTs and TIMERs pending
// and due, for the headers of those in flight, and for a window's fan-outs
// and log — about one fan-out and a few entries per owned process — and for
// the pending mins of the rows in flight (rowRoom). A store outgrowing its
// share grows on its own. A partition that owns a CopyReceiver has room for
// a tile's batches too — n senders and times for each of its processes,
// batch in all; batch is 0 elsewhere.
func (e *Engine) initStores(n, batch int) {
	q, pt, owned := &e.queue, e.part, e.part.own
	pt.dueHi = math.Inf(-1)
	ents := make([]entry, (n+4)+4+(2*owned+4)+(owned+4))
	pt.win, q.heap.items = share(&ents, n+4), share(&ents, 4)
	pt.timers.items, pt.held = share(&ents, 2*owned+4), share(&ents, owned+4)
	ids := make([]int32, 2*(n+4)+1+2*owned+4+(owned+4)+(n+4)+(owned+4)+owned/gatherTile+2)
	pt.off, q.hdrFree = share(&ids, 2*(n+4)+1), share(&ids, 2*owned+4)
	e.runs, pt.wide = share(&ids, owned+4), share(&ids, n+4)
	pt.tiled, pt.tileOff = share(&ids, owned+4), share(&ids, owned/gatherTile+2)
	pt.pending, e.scratch = e.scratch[len(e.scratch):cap(e.scratch)], e.scratch[:n:n] // after Context.Scratch's buffer (newBase)
	if batch > 0 {
		// The batches' senders follow the nonfaulty ids in one array (newBase).
		from, at := e.nonfaulty[n:n+batch], make([]clock.Real, batch)
		e.nonfaulty = e.nonfaulty[:len(e.nonfaulty):n]
		for i := range pt.due {
			pt.tb[i].from, pt.tb[i].at = share(&from, n)[:n], share(&at, n)[:n]
		}
	}
	q.hdrs = make([]msgHdr, 0, 2*owned+4)
	pt.sent = make([]bcast, 0, owned+4)
	e.wlog = make([]logEntry, 0, 2*owned+4)
}

// share cuts the next c elements off *buf, as an empty slice of capacity c.
func share[T any](buf *[]T, c int) []T {
	b := (*buf)[:0:c]
	*buf = (*buf)[c:]
	return b
}

// len counts the partition's pending events: its STARTs and TIMERs wherever
// they wait — q is its engine's queue, whose heap holds the in-window
// timers — and the copies published to it and not yet delivered.
func (pt *partition) len(q *sched) int {
	return len(pt.win) - pt.wpos + q.heap.len() + pt.pend + pt.timers.len() + len(pt.held) - pt.hpos
}

// hold files a partition's START or TIMER, a NaN delivery time as +Inf. A
// TIMER due in the window being drained is the acting process's own (only a
// process's step sets its timers): it goes to the engine's heap, from which
// the drain merges it into the process's due events. Everything else waits
// on the timer heap.
func (e *Engine) hold(en entry) {
	pt, q := e.part, &e.queue
	if en.at != en.at {
		en.at = math.Inf(1)
	}
	if pt.inWindow(en.at) {
		q.heap.push(en)
	} else {
		pt.timers.push(en)
	}
	q.peak = max(q.peak, pt.len(q))
}

// inWindow reports whether an event at t belongs to the window being drained.
func (pt *partition) inWindow(t float64) bool { return t < pt.dueHi && t <= pt.dueUntil }

// sortDue sorts one process's due events sp, at least one, into the window
// array by entryLess: a few by insertion, more by a counting sort on their
// times into about two groups per entry, then one insertion pass, which
// moves only entries that share a group. The groups are laid over the
// ordinary copies' times [lo, hi] (group is monotone in the time and clamps
// what lies outside): a process's own timer for later in the round would
// otherwise stretch them and crowd the copies into a few.
func (pt *partition) sortDue(sp []entry) {
	pt.wpos = 0
	if len(sp) <= 16 {
		pt.win = append(pt.win[:0], sp...)
		insertion(pt.win)
		return
	}
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
	scale := 0.0
	if hi > lo {
		scale = float64(groups) / (hi - lo)
	}
	off := slices.Grow(pt.off[:0], groups)[:groups]
	clear(off)
	pt.off = off
	for i := range sp {
		off[group(sp[i].at, lo, scale, groups)]++
	}
	sum := int32(0)
	for g, n := range off {
		off[g] = sum
		sum += n
	}
	win := slices.Grow(pt.win[:0], total)[:total]
	for i := range sp {
		g := group(sp[i].at, lo, scale, groups)
		win[off[g]] = sp[i]
		off[g]++
	}
	insertion(win)
	pt.win = win
}

// insertion sorts b by entryLess, moving only the entries out of order.
func insertion(b []entry) {
	for i := 1; i < len(b); i++ {
		if en := b[i]; entryLess(&en, &b[i-1]) {
			j := i
			for j > 0 && entryLess(&en, &b[j-1]) {
				b[j] = b[j-1]
				j--
			}
			b[j] = en
		}
	}
}

// group maps a delivery time to one of n groups of width 1/scale laid from
// lo: monotone in at, and clamped for what lies outside them (±Inf, and
// every time when scale is 0).
func group(at, lo, scale float64, n int) int {
	x := (at - lo) * scale
	switch {
	case x < 0 || (x != x && !(at > lo)): // NaN: an infinite time or range
		return 0
	case x < float64(n):
		return int(x)
	}
	return n - 1
}

// shut ends a partition's window. What the window, the in-window timers,
// the tile's buffers and the due STARTs and TIMERs still hold — only after
// the step limit stopped the drain — goes back on the timer heap, except the
// rows' copies, which their rows still hold: the watermark moves only at a
// completed window's cut.
func (e *Engine) shut() {
	q, pt := &e.queue, e.part
	pt.dueHi = math.Inf(-1)
	back := func(ents []entry) {
		for _, en := range ents {
			if en.ref >= 0 {
				pt.timers.push(en)
			}
		}
	}
	back(pt.win[pt.wpos:])
	back(q.heap.items)
	for i, d := range pt.due {
		back(d)
		pt.due[i] = d[:0]
	}
	back(pt.held[pt.hpos:])
	pt.win, pt.wpos, q.heap.items = pt.win[:0], 0, q.heap.items[:0]
	pt.held, pt.hpos = pt.held[:0], 0
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

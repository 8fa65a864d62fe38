package sim

import (
	"errors"
	"fmt"
	"math"

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
// partition: an Engine holding only its processes' pending events. Partition
// 0 is the engine New returns; it drives the windows and replays the
// samples and annotations of each window at its cut (clocktable.go). A window
// runs as: (1) find the globally earliest pending event time
// m, over the queues and the copies the last window sent; (2) let every
// partition, concurrently on one runner.Map worker set per window, file the
// copies the last window sent it into its queue and then drain its events in
// [m, m+L) (Engine.drain, the loop the time-major engine runs); (3) join,
// check every link's earliest copy against the window, hand each link's
// copies to its destination, cut, and repeat. Every link is double-buffered —
// the buffer a source appends to this window, and the one its destination
// files from — so the serial phase at the cut is k² comparisons and swaps,
// and the filing runs on the worker set. Every cross-partition message
// produced inside the window has delivery time ≥ m+L, i.e. beyond the window,
// so no partition can miss an event (checked at the cut against the earliest
// copy on each link; a delay model violating its declared bounds is reported,
// not silently reordered). runner.Map's join is the only synchronization: it
// returns once every partition has, and turns a panicking Receive into that
// partition's error.
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
// common, and how many of the link's entries (in order) are its.
type chunkHdr struct {
	from    ProcID
	sentAt  clock.Real
	payload any
	n       int32
}

// shardLink is the traffic one shard produced for another during one
// window, unicasts and fan-out copies alike: the copies as ready-keyed queue
// entries (unsorted; the destination's header index is filled in when it
// files them), and their earliest delivery time, which the sender keeps as it
// appends so the cut can check the delay lower bound over every copy in O(1).
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
func newWindowed(cfg Config, mode schedMode) (*Engine, error) {
	n, k := len(cfg.Procs), cfg.Shards
	owner := make([]int32, n)
	per := (n + k - 1) / k
	for i := range owner {
		owner[i] = int32(i / per)
	}
	parts := make([]*Engine, k)
	for s := range parts {
		p, err := newPartition(cfg, owner, s, mode)
		if err != nil {
			return nil, err
		}
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
// their queues and the copies the last window sent them.
func (e *Engine) minPending() (clock.Real, bool) {
	var m clock.Real
	any := false
	for _, p := range e.parts {
		if at, ok := p.queue.peekTime(); ok && (!any || at < m) {
			m = at
			any = true
		}
		for s := range p.in {
			if l := &p.in[s]; len(l.ents) > 0 && (!any || clock.Real(l.min) < m) {
				m = clock.Real(l.min)
				any = true
			}
		}
	}
	return m, any
}

// runWindows is Run on a windowed engine: windows until no partition holds
// an event at or before until, or the step limit is hit. Before it returns it
// files the copies the last window sent, so the queues hold every pending
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
		p.fileInbound()
		err := p.drain(hi, until)
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
	for _, p := range e.parts {
		if p.bad != nil {
			return false, p.bad
		}
	}
	if err := e.handOver(hi); err != nil {
		return false, err
	}
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

// handOver checks every link's earliest copy against the window and moves
// each link that carries copies to its destination's inbound side, taking
// the buffer the destination filed from back in exchange. A quiet link takes
// the larger of its two emptied buffers, so traffic that comes in bursts
// grows one buffer per link, not two. Single-threaded, once per window: k²
// comparisons and swaps.
func (e *Engine) handOver(hi clock.Real) error {
	for s, src := range e.parts {
		for d := range src.out {
			l, in := &src.out[d], &e.parts[d].in[s]
			if len(l.ents) == 0 {
				if cap(in.ents) > cap(l.ents) {
					*l, *in = *in, *l
				}
				continue
			}
			if clock.Real(l.min) < hi {
				return l.lowerBoundError(hi)
			}
			*l, *in = *in, *l
		}
	}
	return nil
}

// fileInbound moves the copies the last window sent this partition into its
// queue: sources in ascending order, a link's chunk at a time — one order
// whatever runs it, so header indexes and pop order stay fixed properties of
// the execution. Each partition runs it for itself at the head of its share
// of a window.
func (e *Engine) fileInbound() {
	for s := range e.in {
		l := &e.in[s]
		o := 0
		for j := range l.hdrs {
			h := &l.hdrs[j]
			e.queue.pushCopies(h.from, h.sentAt, h.payload, l.ents[o:o+int(h.n)])
			o += int(h.n)
			h.payload = nil // release the payload reference
		}
		l.hdrs, l.ents, l.min = l.hdrs[:0], l.ents[:0], math.Inf(1)
	}
}

// fileAll files what the last window sent, on every partition.
func (e *Engine) fileAll() {
	for _, p := range e.parts {
		p.fileInbound()
	}
}

// lowerBoundError names the link's earliest copy, which lands before hi.
func (l *shardLink) lowerBoundError(hi clock.Real) error {
	o := 0
	for _, h := range l.hdrs {
		for _, en := range l.ents[o : o+int(h.n)] {
			if en.at == l.min {
				return fmt.Errorf("sim: delay model violated its declared lower bound: copy %d→%d delivers at %v inside the window ending %v",
					h.from, en.to, en.at, hi)
			}
		}
		o += int(h.n)
	}
	panic("sim: shard link minimum matches none of its copies")
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

package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/clock"
	"repro/internal/exp/runner"
)

// This file implements the sharded execution mode: a conservative
// time-window parallelization of the engine in the classic PDES style
// (Chandy–Misra lookahead). Assumption A3 — every message delay lies in
// [δ−ε, δ+ε] — gives the model an intrinsic lookahead of L = δ−ε: a message
// sent at or after real time t cannot be delivered before t+L, so events in
// the half-open window [t, t+L) are causally independent across processes
// and may execute in parallel.
//
// The processes are partitioned into contiguous shards, each owning a
// private Engine that holds only its processes' pending events. A window
// runs as: (1) find the globally earliest pending event time m; (2) let
// every shard drain its events in [m, m+L) concurrently (Engine.drain, the
// loop the sequential engine runs, on one runner.Map worker set per window);
// (3) join, exchange cross-shard traffic single-threaded, cut, and repeat.
// Every cross-shard message produced inside the window has delivery time
// ≥ m+L, i.e. beyond the window, so no shard can miss an event (checked at
// exchange time against the earliest copy on each link; a delay model
// violating its declared bounds is reported, not silently reordered).
// runner.Map's join is the only synchronization: it returns once every shard
// has, and turns a panicking Receive into that shard's error.
//
// Determinism is independent of the shard count (the oracle E19 and
// TestShardedDeterminism pin) because no order state is shared: every
// engine, sequential or shard, gives each sender its own delay stream
// (senderSeed) and send index, and breaks (DeliverAt) ties with packed
// (sender, send index, recipient) keys (Engine.packSeq). A copy's delay and
// key are fixed properties of the execution, not of the partition, so the
// sequential engine and a sharded one over any k run one execution on every
// delay model (TestShardedMatchesSequential); they differ only in when
// observers sample it.
//
// Restrictions, validated at NewSharded: the channel must be stateless
// (FullMesh or LossyLinks; Ether's contention bookkeeping is inherently
// sequential), no adversary (its omniscient PendingDeliveries view and
// retime hooks observe a global order), no timeline (its actions mutate
// global routing/delay state mid-window), and δ−ε must be positive — with
// zero lookahead no window can make progress. Observers are supported at
// window-barrier resolution via ShardedEngine.Observe: Sampler and
// AnnotationSink observers fire single-threaded at every window cut in a
// deterministic merged order; per-delivery observers are rejected (inside a
// window, deliveries on different shards have no global order).

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
// entries (unsorted; the destination's header index is filled in when the
// barrier files them), and their earliest delivery time, which the sender
// keeps as it appends so the barrier can check the delay lower bound over
// every copy in O(1). The barrier empties a link in place, so steady-state
// windows allocate nothing.
type shardLink struct {
	hdrs []chunkHdr
	ents []entry
	min  float64 // +Inf when empty
}

func newShardLinks(k int) []shardLink {
	ls := make([]shardLink, k)
	for i := range ls {
		ls[i].min = math.Inf(1)
	}
	return ls
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

// linkRemote appends a fan-out's non-local copies to the links of the shards
// that own the recipients, keyed as pushBroadcast keys the local ones. Shards
// own contiguous pid blocks, so one fan-out's copies for one shard are
// consecutive.
func (e *Engine) linkRemote(from ProcID, payload any, at []clock.Real, ok []bool, seqBase uint64) {
	last := int32(-1)
	for q := range ok {
		if !ok[q] || e.local[q] {
			continue
		}
		d := e.shardOf[q]
		l := &e.out[d]
		if d != last {
			l.open(from, e.now, payload)
			last = d
		}
		l.add(entry{at: float64(at[q]), key: seqBase | uint64(q), to: int32(q)})
	}
}

// ShardStats counts the synchronization work of a sharded run.
type ShardStats struct {
	// Windows is how many lookahead windows have executed.
	Windows int
	// Every window is one barrier, so Barriers == Windows and BatchedWindows
	// == 0; the two stay because benchmark/replica.go:380–384 reads them.
	Barriers, BatchedWindows int
}

// ShardedEngine runs one system configuration partitioned across several
// shard engines with conservative time-window synchronization. Build with
// NewSharded, drive with Run; per-window sampling hooks in via Observe.
type ShardedEngine struct {
	shards    []*Engine
	owner     []int32 // process → shard index
	lookahead float64 // L = δ−ε
	workers   int
	now       clock.Real
	maxSteps  int
	windows   int

	samplers   []Sampler
	annotSinks []AnnotationSink
	annotMerge []Annotation // reused window-merge scratch
}

// NewSharded validates the configuration for sharded execution and builds
// one shard engine per partition, with processes assigned to shards in
// contiguous blocks. All shard engines share the configuration's process,
// clock and fault slices read-only.
func NewSharded(cfg Config, shards int) (*ShardedEngine, error) {
	n := len(cfg.Procs)
	if shards < 1 {
		return nil, fmt.Errorf("sim: %d shards", shards)
	}
	if shards > n {
		return nil, fmt.Errorf("sim: %d shards for %d processes", shards, n)
	}
	if cfg.Adversary != nil {
		return nil, errors.New("sim: sharded execution does not support an adversary (its omniscient view requires the sequential engine)")
	}
	if len(cfg.Timeline) > 0 {
		return nil, errors.New("sim: sharded execution does not support a timeline (actions mutate global routing/delay state mid-window)")
	}
	switch cfg.Channel.(type) {
	case nil, FullMesh, LossyLinks:
	default:
		return nil, fmt.Errorf("sim: sharded execution requires a stateless channel, got %T", cfg.Channel)
	}
	if cfg.Delay == nil {
		return nil, errors.New("sim: nil delay model")
	}
	d, eps := cfg.Delay.Bounds()
	lookahead := d - eps
	if !(lookahead > 0) {
		return nil, fmt.Errorf("sim: sharded execution needs positive lookahead δ−ε, got δ=%v ε=%v", d, eps)
	}

	owner := make([]int32, n)
	per := (n + shards - 1) / shards
	for i := range owner {
		owner[i] = int32(i / per)
	}
	se := &ShardedEngine{
		owner:     owner,
		lookahead: lookahead,
		workers:   shards,
		maxSteps:  cfg.MaxSteps,
	}
	if se.maxSteps <= 0 {
		se.maxSteps = DefaultMaxSteps
	}
	for s := 0; s < shards; s++ {
		local := make([]bool, n)
		nLocal := 0
		for i := range local {
			if owner[i] == int32(s) {
				local[i] = true
				nLocal++
			}
		}
		scfg := cfg
		if scfg.EventHint > 0 {
			// A caller-supplied hint describes the whole system; this engine
			// only ever buffers its own processes' share — roughly hint/k.
			// Passing the whole-system figure through would oversize every
			// shard's stores k-fold (TestShardedEventHintScaling pins this).
			scfg.EventHint = cfg.EventHint/shards + n + 2*(n/shards) + 16
		} else {
			// Per-shard population: the local copies of every in-flight
			// fan-out plus the shard's own timers.
			scfg.EventHint = n*nLocal + 2*nLocal + 8
		}
		eng, err := newEngine(scfg, &shardSetup{
			local: local, owned: nLocal, owner: owner, shards: shards,
		}, schedAuto)
		if err != nil {
			return nil, err
		}
		se.shards = append(se.shards, eng)
	}
	return se, nil
}

// Observe registers an observer at window-barrier resolution, classifying
// it once by capability. Must be called before Run. Samplers fire once per
// window at the cut time; annotations emitted inside a window are buffered
// per shard and dispatched at the cut in a deterministic merged order
// (sorted by (At, Proc); per-process emission order preserved) — identical
// for every shard count. Per-delivery observers are rejected: inside a
// window, deliveries on different shards have no global order to replay.
func (se *ShardedEngine) Observe(o Observer) error {
	if _, ok := o.(DeliveryObserver); ok {
		return fmt.Errorf("sim: sharded execution cannot run per-delivery observer %T (deliveries inside a window have no deterministic global order; use Sampler/AnnotationSink observers, sampled at window barriers)", o)
	}
	matched := false
	if s, ok := o.(Sampler); ok {
		se.samplers = append(se.samplers, s)
		matched = true
	}
	if a, ok := o.(AnnotationSink); ok {
		se.annotSinks = append(se.annotSinks, a)
		for _, e := range se.shards {
			e.annotCapture = true
		}
		matched = true
	}
	if !matched {
		return fmt.Errorf("sim: Observe(%T): type implements neither Sampler nor AnnotationSink", o)
	}
	return nil
}

// Shards returns the number of shard engines.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Shard returns shard engine i (tests and metrics; treat as read-only).
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// N returns the number of processes.
func (se *ShardedEngine) N() int { return len(se.owner) }

// Now returns the current window cut: all events strictly before it have
// been delivered.
func (se *ShardedEngine) Now() clock.Real { return se.now }

// Windows returns how many synchronization windows have run.
func (se *ShardedEngine) Windows() int { return se.windows }

// Stats returns the synchronization counters of the run so far.
func (se *ShardedEngine) Stats() ShardStats {
	return ShardStats{Windows: se.windows, Barriers: se.windows}
}

// Steps returns the total number of delivered messages across all shards.
func (se *ShardedEngine) Steps() int {
	t := 0
	for _, e := range se.shards {
		t += e.steps
	}
	return t
}

// MessagesSent returns the total ordinary message copies scheduled.
func (se *ShardedEngine) MessagesSent() int64 {
	var t int64
	for _, e := range se.shards {
		t += e.msgsSent
	}
	return t
}

// MessagesLost returns the total copies dropped by the channel.
func (se *ShardedEngine) MessagesLost() int64 {
	var t int64
	for _, e := range se.shards {
		t += e.msgsLost
	}
	return t
}

// TimersLapsed returns the total set-timer calls that named a past time.
func (se *ShardedEngine) TimersLapsed() int64 {
	var t int64
	for _, e := range se.shards {
		t += e.timersLapsed
	}
	return t
}

// QueuePeak returns the largest per-shard queue population high-water mark.
func (se *ShardedEngine) QueuePeak() int {
	p := 0
	for _, e := range se.shards {
		if q := e.QueuePeak(); q > p {
			p = q
		}
	}
	return p
}

// LocalTimeSpread returns the min/max nonfaulty local time at t (all shard
// engines hold the full clock and correction arrays; reads are safe at
// window barriers, where the observers fire). Shard engines scan live —
// see clocktable.go — once per window cut for t = Now().
func (se *ShardedEngine) LocalTimeSpread(t clock.Real) (lo, hi clock.Local, count int) {
	return se.shards[0].LocalTimeSpread(t)
}

// LocalTime returns L_p(t) read live, as Engine.LocalTime does; every shard
// engine shares the configuration's clocks and processes.
func (se *ShardedEngine) LocalTime(p ProcID, t clock.Real) (clock.Local, bool) {
	return se.shards[0].LocalTime(p, t)
}

// Process returns the automaton of p.
func (se *ShardedEngine) Process(p ProcID) Process { return se.shards[0].Process(p) }

// NonfaultyIDs returns the ids of processes not marked faulty (shared; do
// not modify).
func (se *ShardedEngine) NonfaultyIDs() []ProcID { return se.shards[0].NonfaultyIDs() }

// Faulty reports whether p is marked faulty in the configuration.
func (se *ShardedEngine) Faulty(p ProcID) bool { return se.shards[0].Faulty(p) }

// minPending returns the earliest pending event time across all shards.
func (se *ShardedEngine) minPending() (clock.Real, bool) {
	var m clock.Real
	any := false
	for _, e := range se.shards {
		if at, ok := e.queue.peekTime(); ok && (!any || at < m) {
			m = at
			any = true
		}
	}
	return m, any
}

// finishWindow completes one drained and exchanged window: advance the cut —
// all events strictly before it have been delivered and no others, so
// clock/correction reads at the cut are well-defined — dispatch the buffered
// annotations in merged order, then fire the samplers. Single-threaded, behind
// the window's join.
func (se *ShardedEngine) finishWindow(cut clock.Real) {
	se.windows++
	se.now = cut
	se.cut()
	se.dispatchAnnotations()
	se.sample()
}

// cut starts a new configuration version on shard 0's engine, the one the
// observers read. Shard engines keep no version of their own — peers'
// corrections move inside other shards' windows — so every cut counts as a
// change and the first reader's live scan serves the rest of the cut.
func (se *ShardedEngine) cut() { se.shards[0].ver++ }

// sample fires the registered samplers on shard 0's engine: it carries the
// full clock/correction view and its now equals se.now, so samplers read it
// exactly as they would the sequential engine at a sample point.
func (se *ShardedEngine) sample() {
	e0 := se.shards[0]
	for _, s := range se.samplers {
		s.Sample(e0, false)
	}
}

// dispatchAnnotations merges the shards' buffered annotations and replays
// them to the registered sinks in (At, Proc) order — deterministic for
// every shard count: each process lives on exactly one shard and its buffer
// is in emission order, which the stable sort preserves within equal keys.
func (se *ShardedEngine) dispatchAnnotations() {
	if len(se.annotSinks) == 0 {
		return
	}
	buf := se.annotMerge[:0]
	for _, e := range se.shards {
		buf = append(buf, e.annotBuf...)
		e.annotBuf = e.annotBuf[:0]
	}
	se.annotMerge = buf[:0]
	if len(buf) == 0 {
		return
	}
	slices.SortStableFunc(buf, func(a, b Annotation) int {
		if a.At != b.At {
			if a.At < b.At {
				return -1
			}
			return 1
		}
		return int(a.Proc) - int(b.Proc)
	})
	e0 := se.shards[0]
	for i := range buf {
		for _, s := range se.annotSinks {
			s.OnAnnotation(e0, buf[i])
		}
		buf[i] = Annotation{}
	}
}

// Run executes windows until no shard holds an event at or before until, or
// the step limit is hit. Like Engine.Run it may be called repeatedly with
// increasing horizons, and it ends by advancing every clock to the horizon
// and sampling there; the observers otherwise fire once per window.
func (se *ShardedEngine) Run(until clock.Real) error {
	for {
		m, any := se.minPending()
		if !any || m > until {
			// Advance to the horizon so metrics sampled at Now() reflect
			// the full interval, as Engine.Run does.
			if se.now < until {
				se.now = until
				for _, e := range se.shards {
					e.now = until
				}
				se.cut()
				se.sample()
			}
			return nil
		}
		if se.Steps() >= se.maxSteps {
			return fmt.Errorf("sim: step limit %d exceeded at t=%v", se.maxSteps, se.now)
		}
		hi := m + clock.Real(se.lookahead)
		cut := min(hi, until)
		if _, err := runner.Map(se.workers, len(se.shards), func(i int) (struct{}, error) {
			e := se.shards[i]
			err := e.drain(hi, until)
			if err == nil && e.now < cut {
				e.now = cut
			}
			return struct{}{}, err
		}); err != nil {
			var p *runner.PanicError
			if errors.As(err, &p) { // process code panicked: job i is shard i
				return fmt.Errorf("sim: shard %d panicked: %v\n%s", p.Job, p.Value, p.Stack)
			}
			return err
		}
		if err := se.exchange(hi); err != nil {
			return err
		}
		se.finishWindow(cut)
	}
}

// exchange moves the window's cross-shard traffic to the destination
// shards' queues, a link's chunk at a time, after checking the link's
// earliest copy against the window. Single-threaded, once per window.
func (se *ShardedEngine) exchange(hi clock.Real) error {
	for _, src := range se.shards {
		for d := range src.out {
			l := &src.out[d]
			if len(l.ents) == 0 {
				continue
			}
			if clock.Real(l.min) < hi {
				return l.lowerBoundError(hi)
			}
			q, o := &se.shards[d].queue, 0
			for j := range l.hdrs {
				h := &l.hdrs[j]
				q.adopt(h.from, h.sentAt, h.payload, l.ents[o:o+int(h.n)])
				o += int(h.n)
				h.payload = nil // release the payload reference
			}
			l.hdrs, l.ents, l.min = l.hdrs[:0], l.ents[:0], math.Inf(1)
		}
	}
	return nil
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

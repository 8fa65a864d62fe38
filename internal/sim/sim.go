// Package sim implements the system model of §2 of the paper: a set of
// interrupt-driven process automata with read-only physical clocks,
// communicating through a global message buffer that delivers every message
// within [δ−ε, δ+ε] real time.
//
// The engine reproduces the execution properties of §2.3 literally:
//
//  1. finitely many actions before any fixed real time (guaranteed by the
//     event queue plus a step limit),
//  2. executions begin from initial process and buffer states (only START
//     messages are pending initially),
//  3. configurations match up (single-threaded event loop),
//  4. TIMER messages that arrive at real time t are ordered after ordinary
//     messages for the same process arriving at t,
//  5. a receive occurs exactly when the buffer holds a message with that
//     delivery time,
//  6. only the recipient's state and the buffer change at a step; nonfaulty
//     steps follow the transition function (here: Process.Receive).
//
// Setting a timer for a physical-clock value T places a TIMER message with
// delivery time Ph⁻¹(T) in the buffer, unless that real time has passed, in
// which case nothing is placed (§2.2).
//
// The event loop is the per-trial hot path of every experiment, so it is
// built to run allocation-free in the steady state: buffered messages sit in
// recycled headers and the queues move 24-byte pointer-free entries, one per
// copy (queue.go; no interface boxing). The time-major engine orders them
// in one concrete 4-ary heap. A windowed partition holds two stores: one heap
// of its STARTs and TIMERs, and every fan-out — broadcast, multicast or Send —
// as one row: its sender's delay-stream state, from which readers redraw and
// route the copies' delivery times — posted in O(1) from the span its model
// declares, no copy drawn at send — or, for a delay model that does not
// declare its draws, a copy of the times. A copy is drawn when
// it is due in a window: a process's due events are gathered when its turn
// in the window comes and sorted, or, for a CopyReceiver, gathered straight
// into its batch's senders and times, only split at its own STARTs and
// TIMERs and handed over (shard.go).
// One Context per engine is reused across deliveries, observers are
// classified into typed slices at registration time (no per-event type
// assertions), and delay sampling draws from inline per-sender splitmix64
// streams. The no-observer steady state performs zero allocations per
// delivered event (enforced in CI by TestEngineSteadyStateAllocs in
// internal/bench, which gates the same workload the engine benchmarks
// measure).
//
// One Engine type runs every execution, and New is its one constructor.
// Config.Shards = 0 drains the buffer time-major; Shards = k ≥ 1 partitions
// the processes into k blocks drained in parallel lookahead windows, each
// window process by process (shard.go). The two run one execution and sample
// it at the same instants. The window is the faster at k = 1 too, so the run
// path takes it for every configuration Windowable accepts; time-major
// serves what needs the per-delivery order.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/clock"
)

// ProcID identifies a process, 0 ≤ id < n.
type ProcID int

// Kind distinguishes the three interrupt sources of the model (§2.1).
type Kind uint8

// Message kinds. START indicates the recipient should begin its algorithm;
// TIMER is received when the recipient's physical clock reaches a designated
// value; everything else is an ordinary message.
const (
	KindOrdinary Kind = iota + 1
	KindStart
	KindTimer
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindOrdinary:
		return "ORDINARY"
	case KindStart:
		return "START"
	case KindTimer:
		return "TIMER"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is an entry of the global message buffer together with its
// scheduled delivery time.
type Message struct {
	From      ProcID
	To        ProcID
	Kind      Kind
	Payload   any
	SentAt    clock.Real
	DeliverAt clock.Real
}

// Annotation is a measurement emitted by a process and timestamped with real
// time by the engine; experiments derive the paper's quantities (tᵢ spreads,
// ADJ sizes, …) from annotations.
type Annotation struct {
	At    clock.Real
	Proc  ProcID
	Tag   string
	Value float64
}

// Process is an automaton in the sense of §2.1: its entire behavior is a
// transition function invoked once per received message. Nonfaulty processes
// must interact with the system only through the Context. Faulty processes
// implement the same interface but may behave arbitrarily in what they send
// and when. What no Process may do, faulty or not, is change state outside its
// own Receive: §2.3(6) lets a step change only the recipient's state and the
// buffer, and the engine's clock table relies on it (see CorrHolder). So do
// windowed partitions, within a partition too: they deliver a window's
// events process by process, so a Receive that read or wrote another
// process's state would see it at a different point of the execution than
// on the time-major engine. A process whose ordinary receives commute may
// opt in to taking them in batches there (CopyReceiver).
type Process interface {
	Receive(ctx *Context, msg Message)
}

// CopyReceiver is the opt-in of a windowed engine's batched receives, for a
// Process whose ordinary receive commutes: it sets no timer, sends nothing,
// annotates nothing and leaves its correction alone, so receives from
// distinct senders between two of its own STARTs or TIMERs may run in any
// order (§2.3(6)). ReceiveCopies(ctx, from, at) must have the effect of
// Receive for each ordinary copy from from[i] delivered at real time at[i],
// in any order; the senders are distinct, the times unsorted, and
// Context.PhysAt reads the clock at each. Inside it SetTimer, Annotate and
// every send panic with ErrCopyAction.
//
// A partition (shard.go) hands a process that implements it each window's
// due copies as one batch per stretch between its STARTs and TIMERs, unless
// a sender has two fan-outs whose copies may fall due in the window, so two
// copies could share a sender: then, as every other process does and as on
// the time-major engine, it receives them one Receive at a time in (at, key)
// order. A stretch the step limit falls inside goes down that sorted path
// too, with the rest of the process's window.
type CopyReceiver interface {
	Process
	ReceiveCopies(ctx *Context, from []ProcID, at []clock.Real)
}

// ErrCopyAction is the panic of an action taken inside ReceiveCopies, which
// a windowed engine's Run returns as the partition's error.
var ErrCopyAction = errors.New("sim: SetTimer, Annotate or a send inside ReceiveCopies (sim.CopyReceiver contract)")

// CorrHolder is implemented by processes whose local time is Ph + CORR; it
// lets the engine (and metrics) evaluate L_p(t) without touching process
// internals.
//
// Contract: while Engine.Run is executing, the value Corr returns changes
// only inside the holder's own Receive, or inside a timeline action
// (Config.Timeline), and a process changes no correction but its own. The
// engine mirrors nonfaulty corrections, re-reads exactly one — the
// recipient's — per delivery (a change found there is what makes the
// samplers fire) and all of them after a timeline action and when Run is
// entered. A correction moved at any other moment (a peer writing it, a
// goroutine, an observer poking it) is served stale until its process's next
// delivery, which takes the move for its own: the oracle differential test
// (oracle_test.go) names the process, the time and both values, and a
// windowed engine fails Run naming the process and the cut when no delivery
// picked the move up by then.
type CorrHolder interface {
	Corr() clock.Local
}

// Observer is anything the engine can call back into. Capabilities are
// declared by implementing one or more of Sampler, AnnotationSink and
// DeliveryObserver; Observe classifies each observer once, at registration
// time, so the event loop dispatches through pre-typed slices with no
// per-event type assertions and skips callback fan-outs that have no
// listeners entirely: an observer needs no stubs for callbacks it does not
// use, and an action with nobody listening costs no dynamic calls.
type Observer = any

// Sampler is called where some nonfaulty local-time function may bend: at
// Run entry; immediately before (preDeliver true) and after each change of a
// nonfaulty correction and each timeline action; at each clock breakpoint;
// at each instant a sampler asked for with Engine.SampleAt; and at the
// horizon. Between two calls every local time is linear, so a sampler that
// takes maxima of convex quantities — the spread, a cluster's spread, the
// validity envelope's violation — sees their exact maxima. A maximum over a
// window that opens between two such instants (a warm-up, a series bucket)
// is exact only if its sampler asks for the opening instant with SampleAt:
// the engine samples nowhere else. On a windowed engine the calls are
// replayed at each cut with Now at the time-major engine's instants and in
// its order (clocktable.go).
type Sampler interface {
	Sample(e *Engine, preDeliver bool)
}

// AnnotationSink receives every measurement emitted by a process, already
// timestamped with real time by the engine.
type AnnotationSink interface {
	OnAnnotation(e *Engine, a Annotation)
}

// DeliveryObserver receives every delivered message (used by the execution
// tracer).
type DeliveryObserver interface {
	OnDeliver(e *Engine, m Message)
}

// Channel decides, per message copy, its delivery time or its loss. The
// default full-mesh channel is reliable; the Ethernet-like channel of §9.3
// drops copies that collide at a receiver.
type Channel interface {
	// Route maps a sampled base delay to a delivery time, or reports the
	// copy lost.
	Route(from, to ProcID, sentAt clock.Real, baseDelay float64) (clock.Real, bool)
}

// Config assembles a system of processes with clocks (§2.1).
type Config struct {
	Procs   []Process     // one automaton per process
	Clocks  []clock.Clock // physical clocks, same length as Procs
	StartAt []clock.Real  // real delivery time of each START message
	Delay   DelayModel    // message delay model (A3)
	Channel Channel       // nil means reliable full mesh
	Faulty  []bool        // which processes count as faulty (metrics only)
	Seed    int64         // seed for delay sampling
	// Adversary, when non-nil, gets one clamped Retime pass over every
	// ordinary message copy as it is sent and — if it implements
	// SendHook/ReceiveHook — observes copies entering and leaving the
	// buffer. See adversary.go.
	Adversary Adversary
	// MaxSteps bounds the number of delivered messages; 0 means a large
	// default. Guards against runaway (e.g. adversarial) executions.
	MaxSteps int
	// Timeline is an optional script of state mutations (channel swaps,
	// delay-band shifts, adversary changes, process crashes staged by
	// wrapper processes) applied at scheduled real times, interleaved
	// deterministically with deliveries. See timeline.go; the scenario DSL
	// (internal/scenario) compiles its event scripts onto this. Not
	// supported with Shards ≥ 1.
	Timeline []TimedAction
	// EventHint is ignored. It is kept, unread, because benchmark/replica.go
	// sets it: the time-major engine sizes its heap from the process count
	// (DefaultEventHint), and a windowed engine's partitions keep copies in
	// rows and size their timer heaps from their shares.
	EventHint int
	// Shards selects how Run drains the buffer: 0 time-major, on one heap in
	// global (at, key) order; k ≥ 1 in lookahead windows over k partitions
	// (shard.go). k = 1 is still windowed, on Run's own goroutine. Both run
	// one execution and sample it at the same instants. Windowable says
	// whether a configuration may take k ≥ 1, and internal/exp runs its
	// Shards = 0 as 1 when it may; only an adversary, a timeline, Ether, a
	// per-delivery observer or zero lookahead keep a run time-major.
	Shards int
}

// BroadcastAuto is the ignored first argument of DefaultEventHint, kept
// under this name for benchmark/replica.go:169.
const BroadcastAuto = 0

// DefaultEventHint is the queue population the time-major engine pre-sizes
// its heap for: the expected peak number of simultaneously buffered events
// for an n-process all-to-all round — n² copies, a timer or two per process
// and slack. The first parameter is ignored; benchmark/replica.go:169 passes
// BroadcastAuto there.
func DefaultEventHint(_ int, n int) int {
	return n*n + 2*n + 8
}

// Engine executes a system configuration event by event.
type Engine struct {
	procs     []Process
	clocks    []clock.Clock
	faulty    []bool
	nonfaulty []ProcID     // cached ids of non-faulty processes (fixed at New)
	corr      []CorrHolder // per-process CorrHolder, asserted once at New (nil if none)

	// What the send path (fanOut) times every ordinary copy with, classified
	// by SetDelayModel, SetChannel and SetAdversary at New and again on a
	// timeline swap: the delay model, its SampleAll (nil when it has none),
	// its declaration and draws per copy (nil and −1 when it declares none:
	// CounterDelayModel), the channel and whether it is the reliable full
	// mesh, which fanOut routes inline, and the adversary controller, nil
	// when no adversary is installed (the common case).
	delay   DelayModel
	batch   BatchDelayModel
	counter CounterDelayModel
	draws   int
	channel Channel
	mesh    bool
	advCtl  *AdversaryController
	// fanOut's reusable buffers (room for n copies), so a send allocates
	// nothing.
	delays []float64
	copies []entry

	seed     int64
	prand    []*rand.Rand // per-process Context.Rand streams; nil until the first Rand call
	queue    sched
	now      clock.Real
	steps    int
	maxSteps int
	ctx      Context   // one reusable per-delivery context per engine
	scratch  []float64 // Context.Scratch's buffer
	key      uint64    // queue key of the delivery in progress

	// The one numbering of an execution, sequential or sharded: every sender
	// draws its delays from its own stream and numbers its sends itself, and
	// a copy's (DeliverAt, key) tie-break key packs (sender, send index,
	// recipient) — see packSeq. Neither depends on which engine delivers the
	// copy, so a sequential run and a run over any number of shards are one
	// execution. The bit split is sized to the system at newBase: a key is
	// from(63−seqFromShift bits)|sidx|to(seqToBits) and sidxMax guards the
	// send-index field.
	senders      []sender
	seqToBits    uint
	seqFromShift uint
	sidxMax      uint64

	// A partition's rows, its tile buffers, its timer heap and the window
	// being drained, nil on the time-major engine (see shard.go).
	part *partition

	// A partition's window log (shard.go): while a Run observes it, mirror
	// holds every process's correction as its deliveries left it (one slice
	// shared by the partitions, each writing only its own processes'), and
	// wlog collects the partition's correction changes and annotations, a
	// run per process that acted, starting at runs; runHeap is partition 0's
	// merge of the runs at the cut.
	mirror  []clock.Local
	wlog    []logEntry
	runs    []int32
	runHeap []logRun

	// The clock table and the configuration version its one pass per
	// configuration is keyed by (clocktable.go). ver advances when real time
	// moves, a re-read correction differs from its mirror, or a timeline
	// action fires. acting is the process inside Receive (actingAll inside a
	// timeline action, actingNone otherwise): what a read made at that
	// moment must re-read first. edges are the instants the samplers fire
	// at without a change, ascending — clock breakpoints and SampleAt's, a
	// handful, held in edgeBuf until they outgrow it — and sampledVer is the
	// version of the last sample.
	tbl        clockTable
	ver        uint64
	acting     ProcID
	edges      []clock.Real
	edgeBuf    [8]clock.Real
	sampledVer uint64

	// Timeline actions pending execution (sorted by At); tlIdx is the next
	// action to fire. See timeline.go.
	timeline []TimedAction
	tlIdx    int

	samplers []Sampler
	annots   []AnnotationSink
	delivery []DeliveryObserver

	msgsSent     int64 // ordinary message copies scheduled
	msgsLost     int64 // copies dropped by the channel
	timersSet    int64
	timersLapsed int64 // timers requested for the past (dropped per §2.2)
	// bad is the first copy a send filed outside [now, +Inf), or on a
	// partition the first span postSpan could not post; Run reports it once
	// the drain (or the window) ends.
	bad error

	// The windowed engine, on partition 0 only (shard.go): parts is every
	// partition, this one first; its observers fire only in the replay at
	// the cuts, so drain, which partition 0 runs too, never calls them.
	parts     []*Engine
	lookahead float64 // L = δ−ε
	windows   int
	crew      *crew // the workers of the Run in progress at k ≥ 2
}

// DefaultMaxSteps is the runaway guard Config.MaxSteps defaults to.
const DefaultMaxSteps = 10_000_000

// New validates the configuration and builds the engine with the START
// messages pending, matching the initial buffer state of §2.2. With
// Config.Shards = k ≥ 1 the engine returned is partition 0 of k: it drives
// the windows, observers read it, and its counters total every partition's.
func New(cfg Config) (*Engine, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if cfg.Shards != 0 {
		return newWindowed(cfg)
	}
	e, err := newBase(cfg, 0)
	if err != nil {
		return nil, err
	}
	// Pre-size the heap for a round's population (DefaultEventHint), and the
	// header store for what is in flight: every fan-out — a broadcast, a
	// multicast, a Send — is one header, so a process's sends and timers in
	// flight take a few each, 4n+16 to start with, whatever the traffic's
	// copy count.
	n := len(cfg.Procs)
	e.copies = make([]entry, 0, n)
	e.queue.grow(DefaultEventHint(BroadcastAuto, n), 4*n+16)
	e.start(cfg.StartAt)
	return e, nil
}

// sender is one process's share of the numbering — its delay stream and the
// index of its next send — and the piece of its physical clock PhysNow last
// loaded: for start ≤ now < until, Ph(now) = value + rate·(now − start).
// The zero piece, before the first load, is empty.
type sender struct {
	rng          RNG
	sidx         uint64
	start, until clock.Real
	value        clock.Local
	rate         float64
}

// maxProcs caps the system size. A packed sequence key splits 63 bits (bit
// 63 is the scheduler's TIMER flag) as from(b) | sendIndex(63−2b) | to(b)
// with b = ⌈log₂ n⌉, so at the cap (2¹⁷ processes) 29 bits of per-sender
// send index remain — far beyond any step-bounded execution.
const maxProcs = 1 << 17

// ErrTooManyProcs rejects a system larger than maxProcs, whose packed
// sequence keys would overflow.
var ErrTooManyProcs = fmt.Errorf("sim: system exceeds the %d-process cap of packed sequence keys", maxProcs)

// validate is the one check of a configuration, for either drain.
func validate(cfg Config) error {
	n := len(cfg.Procs)
	if n == 0 {
		return errors.New("sim: no processes")
	}
	if n > maxProcs {
		return fmt.Errorf("%w: n=%d", ErrTooManyProcs, n)
	}
	if len(cfg.Clocks) != n {
		return fmt.Errorf("sim: %d clocks for %d processes", len(cfg.Clocks), n)
	}
	if len(cfg.StartAt) != n {
		return fmt.Errorf("sim: %d start times for %d processes", len(cfg.StartAt), n)
	}
	if cfg.Faulty != nil && len(cfg.Faulty) != n {
		return fmt.Errorf("sim: %d faulty flags for %d processes", len(cfg.Faulty), n)
	}
	for i, p := range cfg.Procs {
		if p == nil {
			return fmt.Errorf("sim: process %d is nil", i)
		}
		if cfg.Clocks[i] == nil {
			return fmt.Errorf("sim: clock %d is nil", i)
		}
	}
	if cfg.Delay == nil {
		return errNilDelay
	}
	if d, eps := cfg.Delay.Bounds(); d < eps || eps < 0 {
		return fmt.Errorf("sim: delay bounds δ=%v ε=%v violate assumption A3 (0 ≤ ε ≤ δ)", d, eps)
	}
	if cfg.Shards != 0 {
		return validateWindowed(cfg)
	}
	return nil
}

// newBase builds what every engine, time-major or partition, holds, with no
// queue and nothing buffered yet. The ids of the nonfaulty processes have
// batch more slots after them, for a partition's batch senders (initStores).
func newBase(cfg Config, batch int) (*Engine, error) {
	n := len(cfg.Procs)
	faulty := cfg.Faulty
	if faulty == nil {
		faulty = make([]bool, n)
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	e := &Engine{
		procs:    cfg.Procs,
		clocks:   cfg.Clocks,
		faulty:   faulty,
		seed:     cfg.Seed,
		maxSteps: maxSteps,
		ver:      1,
		acting:   actingNone,
	}
	e.ctx.eng = e
	if err := e.SetDelayModel(cfg.Delay); err != nil {
		return nil, err
	}
	e.SetChannel(cfg.Channel)
	e.SetAdversary(cfg.Adversary)
	rows := 0 // a partition's pending mins of the rows in flight, after Context.Scratch's buffer (initStores)
	if cfg.Shards != 0 {
		rows = rowRoom(n)
	}
	buf := make([]float64, 2*n+rows) // fanOut's delays, Context.Scratch and the rows', one allocation
	e.delays, e.scratch = buf[:n:n], buf[n:2*n]
	e.corr = make([]CorrHolder, n)
	for i, p := range cfg.Procs {
		if h, ok := p.(CorrHolder); ok {
			e.corr[i] = h
		}
	}
	e.nonfaulty = make([]ProcID, 0, n+batch)
	for i, f := range faulty {
		if !f {
			e.nonfaulty = append(e.nonfaulty, ProcID(i))
		}
	}
	if err := e.initTimeline(cfg.Timeline); err != nil {
		return nil, err
	}
	procBits := uint(max(bits.Len(uint(n-1)), 1))
	e.seqToBits, e.seqFromShift = procBits, 63-procBits
	e.sidxMax = uint64(1)<<(63-2*procBits) - 1
	e.senders = make([]sender, n)
	for i := range e.senders {
		e.senders[i].rng = NewRNG(senderSeed(cfg.Seed, ProcID(i)))
	}
	return e, nil
}

// start buffers the START message of every process the engine owns, at its
// real start time: the initial buffer state of §2.2.
func (e *Engine) start(at []clock.Real) {
	for i, t := range at {
		if e.part != nil && e.part.owner(i) != e.part.id {
			continue // a process STARTs on its own partition only
		}
		e.push(Message{From: ProcID(i), To: ProcID(i), Kind: KindStart, SentAt: t, DeliverAt: t})
	}
}

// Observe registers an observer, classifying it once by capability. Must be
// called before Run. An o that implements none of the observer interfaces is
// an error — such a registration would silently observe nothing — and so is
// a DeliveryObserver on a windowed engine, where it is not yet implemented.
func (e *Engine) Observe(o Observer) error {
	s, isSampler := o.(Sampler)
	a, isSink := o.(AnnotationSink)
	d, isDelivery := o.(DeliveryObserver)
	switch {
	case !isSampler && !isSink && !isDelivery:
		return fmt.Errorf("sim: Observe(%T): type implements none of Sampler, AnnotationSink, DeliveryObserver", o)
	case e.parts != nil:
		if err := windowObserver(o); err != nil {
			return err
		}
	}
	if isSampler {
		e.samplers = append(e.samplers, s)
	}
	if isSink {
		e.annots = append(e.annots, a)
	}
	if isDelivery {
		e.delivery = append(e.delivery, d)
	}
	return nil
}

// N returns the number of processes.
func (e *Engine) N() int { return len(e.procs) }

// Now returns the current real time: the delivery time of the last action,
// or the instant a sampler or annotation sink is called at (on a windowed
// engine, replayed at the cut).
func (e *Engine) Now() clock.Real { return e.now }

// total is f of the time-major engine, or f summed over the partitions of a
// windowed one.
func total[T int | int64](e *Engine, f func(*Engine) T) T {
	if e.parts == nil {
		return f(e)
	}
	var t T
	for _, p := range e.parts {
		t += f(p)
	}
	return t
}

// Steps returns the number of delivered messages so far.
func (e *Engine) Steps() int { return total(e, func(p *Engine) int { return p.steps }) }

// QueuePeak returns the high-water mark of pending events — buffered
// STARTs, timers and undelivered message copies — over the execution: a
// round peaks at ≈ n² pending copies; on a windowed engine, the largest
// partition's, where a fan-out's copies count toward their recipients'
// partitions from the cut that publishes its row until they are
// delivered — a copy the channel lost until its row's first read. The
// benchjson memory metric reports this.
func (e *Engine) QueuePeak() int {
	peak := e.queue.peak
	for _, p := range e.parts {
		peak = max(peak, p.queue.peak)
	}
	return peak
}

// MessagesSent returns the count of ordinary message copies scheduled so far
// (the paper's per-round message complexity derives from this). A partition
// counts a drawn row's copies sent when it posts the row and takes back
// those the channel lost, into MessagesLost, when the row is first read: in
// a window, or at Run's horizon for a row no window read. So at the end of
// every Run both equal the time-major engine's counts.
func (e *Engine) MessagesSent() int64 { return total(e, func(p *Engine) int64 { return p.msgsSent }) }

// MessagesLost returns copies dropped by the channel (nonzero only for lossy
// channels such as the §9.3 Ethernet model).
func (e *Engine) MessagesLost() int64 { return total(e, func(p *Engine) int64 { return p.msgsLost }) }

// TimersLapsed returns how many set-timer calls named a time already past.
func (e *Engine) TimersLapsed() int64 {
	return total(e, func(p *Engine) int64 { return p.timersLapsed })
}

// Faulty reports whether p is marked faulty in the configuration.
func (e *Engine) Faulty(p ProcID) bool { return e.faulty[p] }

// NonfaultyIDs returns the ids of processes not marked faulty. The slice is
// computed once at New (the fault assignment is fixed for the execution) and
// shared: callers must not modify it. Rebuilding it allocated on every
// metrics sample, which dominated the observer hot path.
func (e *Engine) NonfaultyIDs() []ProcID { return e.nonfaulty }

// PhysTime returns Ph_p(t).
func (e *Engine) PhysTime(p ProcID, t clock.Real) clock.Local {
	return e.clocks[p].At(t)
}

// LocalTime returns L_p(t) = Ph_p(t) + CORR_p for the process's current CORR
// value. ok is false if the process does not expose a correction variable.
// This is the live scalar path — it asks the clock and the process every
// time — and the oracle the clock table's batch reads (LocalTimeSpread,
// LocalTimes) are tested against.
func (e *Engine) LocalTime(p ProcID, t clock.Real) (clock.Local, bool) {
	h := e.corr[p]
	if h == nil {
		return 0, false
	}
	return e.clocks[p].At(t) + h.Corr(), true
}

// Process returns the automaton of p (used by tests and metrics).
func (e *Engine) Process(p ProcID) Process { return e.procs[p] }

// Adversary returns the engine's adversary controller, nil when no
// adversary is installed.
func (e *Engine) Adversary() *AdversaryController { return e.advCtl }

// Run processes events in delivery order until the queue empties or real
// time would exceed until — time-major, or window by window on a windowed
// engine — and ends by advancing the clock to until and sampling there. The
// step limit is an error, and so is a copy a delay model sent to a NaN,
// infinite or past delivery time. Run may be called repeatedly with
// increasing horizons.
func (e *Engine) Run(until clock.Real) error {
	if e.parts != nil {
		return e.runWindows(until)
	}
	e.enter()
	err := e.drain(until)
	if e.bad != nil {
		err = e.bad
	}
	if err != nil {
		return err
	}
	e.advance(until)
	e.horizon()
	return nil
}

// drain is the time-major delivery loop: it delivers, in (DeliverAt, seq)
// order, every pending event at or before until, firing timeline actions and
// sampling at the edges in between. A windowed engine's partitions deliver
// through drainWindow instead (shard.go); both take each step with step.
func (e *Engine) drain(until clock.Real) error {
	var m Message
	for {
		at, ok := e.queue.peekTime()
		if e.tlIdx < len(e.timeline) {
			// Fire timeline actions due before the next delivery (ties go
			// to the action) or, when the queue is drained past them, before
			// the horizon. An action may swap routing/delay/adversary state
			// or enqueue traffic, so re-peek afterwards.
			bound := until
			if ok && at < bound {
				bound = at
			}
			if e.fireTimeline(bound) {
				continue
			}
		}
		if !ok || at > until {
			return nil
		}
		if e.steps >= e.maxSteps {
			return fmt.Errorf("sim: step limit %d exceeded at t=%v", e.maxSteps, e.now)
		}
		if len(e.edges) > 0 && at >= e.edges[0] {
			e.advance(at) // sample at the edges up to the delivery first
		}
		e.step(e.queue.heap.pop(), &m)
	}
}

// step is one action of §2.3, whichever order the engine delivers in: it
// takes the popped entry's message into m, moves real time to its delivery
// time, counts the step, lets the recipient Receive it, and reads the one
// correction the step may have changed (settle).
func (e *Engine) step(en entry, m *Message) {
	if en.ref < 0 { // a row's copy a partition gathered
		e.part.board.load(&en, m)
	} else {
		e.queue.take(en, m)
	}
	e.key = en.key
	if m.DeliverAt != e.now {
		e.now = m.DeliverAt
		e.ver++
	}
	e.steps++
	for _, d := range e.delivery {
		d.OnDeliver(e, *m)
	}
	if e.advCtl != nil && m.Kind == KindOrdinary {
		// The adversary's observed-arrival record: every ordinary
		// delivery, announced immediately before the recipient acts.
		e.advCtl.onReceive(*m)
	}
	e.ctx.pid, e.acting = m.To, m.To
	e.procs[m.To].Receive(&e.ctx, *m)
	e.acting = actingNone
	e.settle(m.To)
}

func (e *Engine) annotate(p ProcID, tag string, v float64) {
	// Annotations fire mid-Receive, typically right after the process
	// changed its correction; a sink that reads clocks now goes through
	// Engine.table, which re-reads the acting process first.
	if e.mirror != nil { // a window's: logged with the emitter's row as now, replayed at the cut
		en := logEntry{key: e.key, at: e.now, tag: tag, value: v, proc: int32(p), annot: true}
		if !e.faulty[p] && e.corr[p] != nil {
			en.corr = e.corr[p].Corr()
		}
		e.wlog = append(e.wlog, en)
		return
	}
	e.dispatch(Annotation{At: e.now, Proc: p, Tag: tag, Value: v})
}

// logChange logs the delivery's move of p's correction to c: on the
// delivery's last log entry when that is p's annotation showing c already.
func (e *Engine) logChange(p ProcID, c clock.Local) {
	if n := len(e.wlog); n > 0 {
		if l := &e.wlog[n-1]; l.key == e.key && l.at == e.now && l.proc == int32(p) && same(l.corr, c) {
			l.change = true
			return
		}
	}
	e.wlog = append(e.wlog, logEntry{key: e.key, at: e.now, proc: int32(p), corr: c, change: true})
}

func (e *Engine) dispatch(a Annotation) {
	for _, s := range e.annots {
		s.OnAnnotation(e, a)
	}
}

// fanOut is the one send step of §2.2: it puts a copy of payload from p into
// the buffer for every recipient q in [lo, hi) — Context.Broadcast passes
// [0, n), Context.Multicast its range and Context.Send(q) [q, q+1). On a
// partition a model that declares its draws and span posts the fan-out as a
// drawn row in O(1), drawing nothing (postSpan). Otherwise it samples the
// delays first, into the engine's delays buffer: one SampleAll when the
// range is every process and the model batches (UniformDelay), one Sample
// per copy otherwise, drawing the same stream either way. Then, copy by copy
// in recipient order, an installed adversary retimes the delay inside its
// clamp, the channel routes it (inline on the full mesh), a copy the channel
// lost or a delay model sent outside [now, +Inf) is dropped — its time is
// NaN from here on — and the rest are counted and announced to the send
// hook. The fan-out takes its send index even when none survives, as a
// drawn row does; the survivors are filed under it: on the time-major
// engine under one shared header, on a partition as one stored row (post). A
// copy's key is packSeq(from, sidx, q) whatever the range, so a Broadcast,
// Multicasts over consecutive blocks and n Sends to q = 0..n−1 order their
// copies alike — TestBroadcastMatchesSends holds the three to one execution.
func (e *Engine) fanOut(from ProcID, lo, hi int, payload any) {
	now, rng, pt := e.now, &e.senders[from].rng, e.part
	times := e.delays[lo:hi] // a range outside [0, n) panics here
	if pt != nil && e.counter != nil {
		e.postSpan(from, lo, hi, payload)
		return
	}
	if e.batch != nil && lo == 0 && hi == len(e.procs) {
		e.batch.SampleAll(from, hi-lo, now, rng, times)
	} else {
		for i := range times {
			times[i] = e.delay.Sample(from, ProcID(lo+i), now, rng)
		}
	}
	sent := 0
	for i, d := range times {
		to := ProcID(lo + i)
		if e.advCtl != nil {
			d = e.advCtl.retime(from, to, now, d)
		}
		at, ok := now+clock.Real(d), true
		if !e.mesh {
			at, ok = e.channel.Route(from, to, now, d)
		}
		switch {
		case !ok:
			e.msgsLost++
			at = clock.Real(math.NaN())
		case !(at >= now && at <= math.MaxFloat64): // NaN fails both
			e.badCopy(from, to, at)
			at = clock.Real(math.NaN())
		default:
			e.msgsSent++
			sent++
			if e.advCtl != nil {
				e.advCtl.onSend(Message{From: from, To: to, Kind: KindOrdinary, Payload: payload, SentAt: now, DeliverAt: at})
			}
		}
		times[i] = float64(at)
	}
	s := &e.senders[from]
	seqBase := e.packSeq(from, s.sidx, 0)
	if s.sidx++; sent == 0 {
		return
	}
	if pt != nil {
		countN(censusSampled, len(times))
		e.post(from, payload, seqBase, lo, times)
		return
	}
	local := e.copies[:0]
	for i, t := range times {
		if t == t {
			local = append(local, entry{at: t, key: seqBase | uint64(lo+i), to: int32(lo + i)})
		}
	}
	e.queue.pushCopies(from, now, payload, local)
}

// badCopy drops a copy whose delivery time is not a finite time at or after
// its send — the buffer delivers forward in real time (§2.2) — and keeps the
// first for Run to report. Finite, forward delays outside [δ−ε, δ+ε] stay
// legal: experiments break A3 on purpose.
func (e *Engine) badCopy(from, to ProcID, at clock.Real) {
	if e.bad == nil {
		e.bad = fmt.Errorf("sim: delay model %T sent copy %d→%d at t=%v for delivery at t=%v; a delivery time must be finite and not before the send",
			e.delay, from, to, e.now, at)
	}
}

// push buffers a START or a TIMER — one copy, for the sender itself, so
// always on the sender's own partition — under its next packed key.
func (e *Engine) push(m Message) {
	s := &e.senders[m.From]
	seq := e.packSeq(m.From, s.sidx, m.To)
	s.sidx++
	if e.part != nil {
		e.hold(e.queue.single(&m, seq))
		return
	}
	e.queue.push(&m, seq)
}

// packSeq builds the sequence key of one message copy. Key order refines
// (sender, send index, recipient) — a total order on copies that depends
// only on the execution's causal structure, never on the engine, the shard
// count or the interleaving of windows. A send index outgrowing its field
// would silently corrupt the order, so it panics instead.
func (e *Engine) packSeq(from ProcID, sidx uint64, to ProcID) uint64 {
	if sidx > e.sidxMax {
		panic(fmt.Sprintf("sim: sender %d send index %d overflows the packed sequence key (n=%d leaves %d index bits)",
			from, sidx, len(e.procs), 63-2*int(e.seqToBits)))
	}
	return uint64(from)<<e.seqFromShift | sidx<<e.seqToBits | uint64(to)
}

// setTimer places a TIMER for process p at physical-clock time T, i.e. real
// time Ph_p⁻¹(T); a timer for the past is dropped (§2.2).
func (e *Engine) setTimer(p ProcID, T clock.Local, payload any) {
	at := e.clocks[p].Inv(T)
	if at <= e.now {
		e.timersLapsed++
		return
	}
	e.timersSet++
	e.push(Message{From: p, To: p, Kind: KindTimer, Payload: payload, SentAt: e.now, DeliverAt: at})
}

// Context is the interface a process step has to the system: its identity,
// its physical clock reading, and the actions the model allows (send,
// multicast, broadcast, set a timer). A Context is valid only for the
// duration of the Receive call it was passed to; the engine reuses one
// context across deliveries, so a process must never retain it.
type Context struct {
	eng    *Engine
	pid    ProcID
	copies bool // inside ReceiveCopies, which takes no action
}

// act returns the engine for an action of the step: none inside
// ReceiveCopies.
func (c *Context) act() *Engine {
	if c.copies {
		panic(ErrCopyAction)
	}
	return c.eng
}

// ID returns the process's own id.
func (c *Context) ID() ProcID { return c.pid }

// N returns the total number of processes in the system.
func (c *Context) N() int { return len(c.eng.procs) }

// PhysNow returns the process's physical clock reading Ph_p(t) at the current
// instant. Processes never see real time.
func (c *Context) PhysNow() clock.Local { return c.PhysAt(c.eng.now) }

// PhysAt returns Ph_p(t), the reading PhysNow gives at real time t: what a
// CopyReceiver reads its copies' delivery times with.
//
// It evaluates the piece of the clock the process's sender entry holds with
// the expression clock.PiecewiseLinear.At uses (see clock.Segment), so the
// reading is At's bit for bit without the interface call and the segment
// search. A t past the held piece loads the piece it lies in; a t before it,
// which only a batch's unsorted times reach, reads through At.
func (c *Context) PhysAt(t clock.Real) clock.Local {
	e := c.eng
	if s := &e.senders[c.pid]; t < s.until && t >= s.start {
		return s.value + clock.Local(s.rate*float64(t-s.start))
	}
	return e.physAt(c.pid, t)
}

// physAt is PhysAt outside the held piece: it loads p's segment at t, or
// reads a t before the held piece through At.
func (e *Engine) physAt(p ProcID, t clock.Real) clock.Local {
	s := &e.senders[p]
	if t < s.start {
		return e.clocks[p].At(t)
	}
	seg := e.clocks[p].SegmentAt(t)
	s.start, s.until, s.value, s.rate = seg.Start, seg.Until, seg.Value, seg.Rate
	return s.value + clock.Local(s.rate*float64(t-s.start))
}

// Send places an ordinary message to q in the buffer: the multicast over
// [q, q+1). An id outside [0, n) panics.
func (c *Context) Send(to ProcID, payload any) { c.act().fanOut(c.pid, int(to), int(to)+1, payload) }

// Multicast sends the payload to every process in [lo, hi), the sender
// included if it lies there: one fan-out under one send index and — on the
// time-major engine — one buffered header; on a windowed engine one row. Delays are drawn copy by copy in
// recipient order, the stream a loop of Sends to lo … hi−1 draws, and the
// copies order alike, so the multicast and the loop run one execution. lo ≥ hi sends nothing; a
// range reaching outside [0, n) panics as Send does.
func (c *Context) Multicast(lo, hi ProcID, payload any) {
	if e := c.act(); lo < hi {
		e.fanOut(c.pid, int(lo), int(hi), payload)
	}
}

// Broadcast sends the payload to every process, including the sender (§2.2:
// every process can communicate with every process, including itself): the
// multicast over [0, n). Each copy's delay is drawn independently within
// [δ−ε, δ+ε]; the copies share one send index and one buffered header — on
// a windowed engine one row, whichever partition receives it.
func (c *Context) Broadcast(payload any) { c.act().fanOut(c.pid, 0, len(c.eng.procs), payload) }

// SetTimer requests a TIMER interrupt when the process's physical clock
// reaches T. The payload is returned in the TIMER message.
func (c *Context) SetTimer(T clock.Local, payload any) { c.act().setTimer(c.pid, T, payload) }

// Scratch returns a buffer of n floats for the process to use inside this
// Receive call and no longer: one per engine partition, shared by every
// process it delivers to, its contents unspecified. A round's averaging
// takes ARR's copy from it rather than hold a second ARR per process.
func (c *Context) Scratch(n int) []float64 {
	e := c.eng
	if len(e.scratch) < n {
		e.scratch = make([]float64, n)
	}
	return e.scratch[:n]
}

// Annotate emits a measurement observers can timestamp with real time.
func (c *Context) Annotate(tag string, v float64) { c.act().annotate(c.pid, tag, v) }

// Rand returns the process's deterministic random source (used by randomized
// fault strategies; nonfaulty algorithms in this repository are deterministic
// and never call it). The generator is created on first use, seeded from the
// engine seed and the process id, and cached for the rest of the execution,
// so consecutive calls continue one stream: two calls within one Receive
// return different values.
func (c *Context) Rand() *rand.Rand {
	e := c.eng
	if e.prand == nil {
		e.prand = make([]*rand.Rand, len(e.procs))
	}
	if e.prand[c.pid] == nil {
		e.prand[c.pid] = rand.New(rand.NewSource(procSeed(e.seed, c.pid)))
	}
	return e.prand[c.pid]
}

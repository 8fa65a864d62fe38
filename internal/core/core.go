// Package core implements the paper's contribution: the fault-tolerant clock
// synchronization maintenance algorithm of §4, together with the extensions
// of §7 (k exchanges per round, mean instead of midpoint), §9.1
// (reintegration of a repaired process), §9.2 (establishing synchronization),
// and §9.3 (staggered broadcasts for collision-prone datagram networks).
//
// The algorithm runs in rounds of local-time length P. When process p's i-th
// logical clock reaches Tⁱ = T⁰ + iP, p broadcasts a Tⁱ message and records
// in ARR the local arrival times of everyone's Tⁱ messages. After waiting
// (1+ρ)(β+δ+ε) on its logical clock — just long enough to hear every
// nonfaulty process — it computes
//
//	AV  = mid(reduce_f(ARR))      (the fault-tolerant average)
//	ADJ = Tⁱ + δ − AV
//	CORR += ADJ
//
// switching to its (i+1)-st logical clock, and sets a timer for Tⁱ⁺¹.
package core

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// Annotation tags (shared vocabulary in package metrics): TagRoundBegin
// fires when the logical clock reaches Tⁱ, TagAdjust at each clock update,
// TagRoundComplete after the update ending a round, TagRejoined when a
// reintegrating process has set its clock, TagStartupRound when a start-up
// process begins a round.

// TMsg is the round message of §4.2: the broadcast of the value Tⁱ at the
// moment the sender's logical clock reaches it.
type TMsg struct {
	Mark clock.Local // the round mark Tⁱ the sender is broadcasting
}

// Averager selects the ordinary averaging function applied after reduce_f.
type Averager uint8

// Averaging choices. The paper's algorithm uses the midpoint; §7 notes that
// with f fixed and n growing, the mean converges at rate f/(n−2f) and
// approaches an error of about 2ε.
const (
	Midpoint Averager = iota + 1
	Mean
)

// String implements fmt.Stringer.
func (a Averager) String() string {
	switch a {
	case Midpoint:
		return "midpoint"
	case Mean:
		return "mean"
	default:
		return fmt.Sprintf("Averager(%d)", uint8(a))
	}
}

func (a Averager) apply(m multiset.Multiset, f int) (float64, error) {
	switch a {
	case Mean:
		return multiset.FaultTolerantMean(m, f)
	default:
		return multiset.FaultTolerantMidpoint(m, f)
	}
}

// Config parameterizes the maintenance algorithm. The zero value is not
// usable; fill Params (validated via analysis.Params.Validate) and leave the
// variant knobs zero for the plain §4.2 algorithm.
type Config struct {
	analysis.Params

	// Averager defaults to Midpoint.
	Averager Averager
	// K is the number of clock-value exchanges per round (§7); 0 or 1 is
	// the plain algorithm.
	K int
	// SubPeriod spaces the K exchanges within a round in local time. Zero
	// derives a feasible spacing from the parameters. Ignored for K ≤ 1.
	SubPeriod float64
	// Stagger is the §9.3 spacing σ: process p broadcasts at Tⁱ + p·σ so
	// that datagrams do not collide. Zero disables staggering.
	Stagger float64
}

func (c Config) withDefaults() Config {
	if c.Averager == 0 {
		c.Averager = Midpoint
	}
	if c.K < 1 {
		c.K = 1
	}
	if c.K > 1 && c.SubPeriod == 0 {
		c.SubPeriod = c.PMin() * 1.05
	}
	return c
}

// Validate checks the parameters and the variant knobs.
func (c Config) Validate() error {
	cc := c.withDefaults()
	if err := cc.Params.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if cc.K > 1 && float64(cc.K)*cc.SubPeriod > cc.P {
		return fmt.Errorf("core: K=%d exchanges of sub-period %v do not fit in round length %v", cc.K, cc.SubPeriod, cc.P)
	}
	if cc.Stagger < 0 {
		return fmt.Errorf("core: negative stagger %v", cc.Stagger)
	}
	if cc.Stagger > 0 && float64(cc.N)*cc.Stagger > cc.P/4 {
		return fmt.Errorf("core: stagger %v too large for n=%d and P=%v", cc.Stagger, cc.N, cc.P)
	}
	return nil
}

// phase is the FLAG variable of §4.2, alternating between broadcasting the
// clock value and updating the clock.
type phase uint8

const (
	phaseBroadcast phase = iota + 1 // FLAG = BCAST
	phaseUpdate                     // FLAG = UPDATE
)

// Round is one §4.2 instance minus the correction it adjusts: the fault
// budget f, δ and the collection window, the marks, FLAG and the arrival
// array ARR. Whoever holds it owns CORR and the timers — Proc runs one over
// sender ids; a hier.Member runs two over one CORR, slotted by cluster rank
// and by cluster.
type Round struct {
	f             int
	delta, window float64
	p             float64     // round length P
	t             clock.Local // T: the current (sub-)exchange mark
	base          clock.Local // Tⁱ: beginning of the current round
	rnd           int         // round index i
	flag          phase
	arr           []float64 // ARR: local arrival time of each slot's latest message
	scratch       []float64 // reusable quickselect buffer for the midpoint update
}

// NewRound builds the instance for p at its first mark T⁰, FLAG = BCAST,
// with one arrival slot per p.N.
func NewRound(p analysis.Params) Round {
	arr := make([]float64, p.N)
	for i := range arr {
		arr[i] = math.Inf(-1) // never-heard sentinel; reduce_f discards them
	}
	return Round{
		f:     p.F,
		delta: p.Delta, window: p.Window(), p: p.P,
		t: clock.Local(p.T0), base: clock.Local(p.T0),
		flag: phaseBroadcast,
		arr:  arr, scratch: make([]float64, p.N),
	}
}

// Mark returns T, the mark of the exchange in progress.
func (r *Round) Mark() clock.Local { return r.t }

// Index returns the round index i.
func (r *Round) Index() int { return r.rnd }

// Broadcasting reports FLAG = BCAST: the next timer broadcasts T rather than
// updating the clock.
func (r *Round) Broadcasting() bool { return r.flag == phaseBroadcast }

// Record is §4.2's receive step, ARR[slot] := local.
func (r *Round) Record(slot int, local float64) { r.arr[slot] = local }

// Collect ends the broadcast step: FLAG := UPDATE, and the update is due
// `extra` after Uⁱ = T + (1+ρ)(β+δ+ε).
func (r *Round) Collect(extra float64) clock.Local {
	r.flag = phaseUpdate
	return r.t + clock.Local(r.window+extra)
}

// Adjust returns ADJ = T + δ − mid(reduce_f(ARR)). mid(reduce_f) needs only
// the (f+1)-th smallest and largest arrivals, so quickselect on a reused
// scratch copy of ARR replaces a per-round sort and allocation; the result is
// bit-identical to the sorting path.
func (r *Round) Adjust() float64 {
	copy(r.scratch, r.arr)
	av, err := multiset.MidpointSelect(r.scratch, r.f)
	return r.adjustment(av, err)
}

// adjustment turns the fault-tolerant average AV into ADJ = T + δ − AV.
func (r *Round) adjustment(av float64, err error) float64 {
	if err != nil {
		// Unreachable for validated configs: |ARR| = n ≥ 3f+1 > 2f.
		panic(fmt.Sprintf("core: averaging: %v", err))
	}
	adj := float64(r.t) + r.delta - av
	if math.IsInf(adj, 0) || math.IsNaN(adj) {
		// Out-of-spec safeguard: with more than f senders missing, the
		// never-heard sentinels survive reduce_f and the average is
		// meaningless. The paper assumes ≤ f faults (A2), so this cannot
		// happen in spec; outside spec we skip the adjustment rather than
		// poison the clock, letting experiments measure the degradation.
		return 0
	}
	return adj
}

// Advance moves to the next round: T := Tⁱ⁺¹ = Tⁱ + P, FLAG := BCAST.
func (r *Round) Advance() {
	r.rnd++
	r.base += clock.Local(r.p)
	r.t = r.base
	r.flag = phaseBroadcast
}

// SkipTo fast-forwards an instance that has not run yet to its first mark at
// or after local time now, so a late starter joins the running schedule.
func (r *Round) SkipTo(now clock.Local) {
	if now <= r.t {
		return
	}
	skip := math.Ceil(float64(now-r.t) / r.p)
	r.base += clock.Local(skip * r.p)
	r.t = r.base
	r.rnd = int(skip)
}

// Proc is the nonfaulty process automaton of §4.2. One Proc per process;
// construct with NewProc. It holds its Round by value, so recording an
// arrival is one indexed store, and adds what only the flat mesh has: the K
// sub-exchanges of §7, the §9.3 stagger and the mean averager.
type Proc struct {
	cfg  Config
	corr clock.Local
	rd   Round
	exch int // sub-exchange index within the round, 0-based

	// lastAdj is the most recent ADJ, for tests; the authoritative record
	// for experiments is the TagAdjust annotation stream.
	lastAdj float64
}

var (
	_ sim.Process    = (*Proc)(nil)
	_ sim.CorrHolder = (*Proc)(nil)
)

// NewProc builds a process with the given initial correction (the paper's
// "initially whatever value is needed to attain required degree of
// synchronization": the experiment setup chooses initial corrections so that
// assumption A4 holds, or violates it on purpose).
func NewProc(cfg Config, initialCorr clock.Local) *Proc {
	cfg = cfg.withDefaults()
	return &Proc{cfg: cfg, corr: initialCorr, rd: NewRound(cfg.Params)}
}

// Corr implements sim.CorrHolder: the local time is Ph_p + CORR.
func (p *Proc) Corr() clock.Local { return p.corr }

// Round returns the current round index.
func (p *Proc) Round() int { return p.rd.rnd }

// LastAdj returns the adjustment applied at the most recent update.
func (p *Proc) LastAdj() float64 { return p.lastAdj }

// local returns local-time() = physical clock + CORR.
func (p *Proc) local(ctx *sim.Context) clock.Local { return ctx.PhysNow() + p.corr }

// setTimer arranges a TIMER when the current logical clock reaches T (§4.2's
// set-timer: physical clock reaches T − CORR).
func (p *Proc) setTimer(ctx *sim.Context, T clock.Local) {
	ctx.SetTimer(T-p.corr, nil)
}

// Receive implements the three code clusters of §4.2.
func (p *Proc) Receive(ctx *sim.Context, m sim.Message) {
	switch {
	case m.Kind == sim.KindOrdinary:
		// receive(m) from q: ARR[q] := local-time().
		// With §9.3 staggering, q broadcast at Tⁱ + q·σ, so subtract q·σ
		// to normalize the arrival to the unstaggered schedule.
		p.rd.arr[m.From] = float64(p.local(ctx)) - p.cfg.Stagger*float64(m.From)

	case (m.Kind == sim.KindStart || isOwnTimer(m)) && p.rd.flag == phaseBroadcast:
		if p.exch == 0 {
			ctx.Annotate(metrics.TagRoundBegin, float64(p.rd.rnd))
		}
		ctx.Broadcast(TMsg{Mark: p.rd.t})
		// The window is extended to cover the staggered broadcast tail n·σ
		// when σ > 0.
		p.setTimer(ctx, p.rd.Collect(float64(p.cfg.N)*p.cfg.Stagger))

	case isOwnTimer(m) && p.rd.flag == phaseUpdate:
		p.update(ctx)
	}
}

// isOwnTimer reports whether m is a TIMER this automaton set: Proc's timers
// carry a nil payload, so timers left pending by a predecessor automaton
// (e.g. the §9.2 start-up phase before a switch) are ignored.
func isOwnTimer(m sim.Message) bool {
	return m.Kind == sim.KindTimer && m.Payload == nil
}

func (p *Proc) update(ctx *sim.Context) {
	r := &p.rd
	var adj float64
	if p.cfg.Averager == Midpoint {
		adj = r.Adjust()
	} else {
		adj = r.adjustment(p.cfg.Averager.apply(multiset.New(r.arr...), r.f))
	}
	p.corr += clock.Local(adj)
	p.lastAdj = adj
	ctx.Annotate(metrics.TagAdjust, adj)

	if p.exch < p.cfg.K-1 {
		p.exch++
		r.t = r.base + clock.Local(float64(p.exch)*p.cfg.SubPeriod)
		r.flag = phaseBroadcast
	} else {
		ctx.Annotate(metrics.TagRoundComplete, float64(r.rnd))
		p.exch = 0
		r.Advance()
	}
	p.setTimer(ctx, p.broadcastMark(ctx))
}

// broadcastMark returns the logical time at which this process broadcasts
// the current exchange: T + p·σ (§9.3), which is plain T when σ = 0.
func (p *Proc) broadcastMark(ctx *sim.Context) clock.Local {
	return p.rd.t + clock.Local(p.cfg.Stagger*float64(ctx.ID()))
}

// StartTimes returns the real times at which each process's START message
// should be delivered so that assumption A4 holds: process p wakes when its
// initial logical clock reaches T⁰. initialCorrs are the initial CORR values
// and clocks the physical clocks.
func StartTimes(cfg Config, clocks []clock.Clock, initialCorrs []clock.Local) []clock.Real {
	starts := make([]clock.Real, len(clocks))
	for i, c := range clocks {
		starts[i] = c.Inv(clock.Local(cfg.T0) - initialCorrs[i])
	}
	return starts
}

// InitialCorrsWithinBeta returns initial corrections that realize assumption
// A4 with the inverse initial logical clocks spread evenly across [0, width]
// real time. Width must be ≤ β for A4 to hold; experiments pass larger
// widths to study recovery from out-of-spec initial states.
func InitialCorrsWithinBeta(cfg Config, clocks []clock.Clock, width float64) []clock.Local {
	corrs := make([]clock.Local, len(clocks))
	n := len(clocks)
	for i, c := range clocks {
		// Want c_p⁰(T⁰) = spread_i, i.e. Ph_p(spread_i) + CORR = T⁰.
		var spread clock.Real
		if n > 1 {
			spread = clock.Real(width) * clock.Real(i) / clock.Real(n-1)
		}
		corrs[i] = clock.Local(cfg.T0) - c.At(spread)
	}
	return corrs
}

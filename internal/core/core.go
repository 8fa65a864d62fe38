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

// RoundMsgs is a run's round messages of one schedule boxed once, before
// the run, and only read during it, so that a round's sends box nothing:
// the message of round i under the mark it carries, T⁰ + iP summed as a
// schedule sums it. Proc broadcasts from one (NewRoundMsgs); hier keeps
// one per tier. A mark outside the table — a late starter's skipped-to
// mark, a §7 sub-exchange, a round past the last interned — is boxed at
// the send as before; either way the payload is the same value.
type RoundMsgs struct {
	marks []clock.Local
	msgs  []any
}

// InternRounds boxes box(Tⁱ) for the marks of rounds 0 … rounds+1 of p.
func InternRounds(p analysis.Params, rounds int, box func(mark clock.Local) any) RoundMsgs {
	s := newSchedule(p, 0)
	r := RoundMsgs{marks: make([]clock.Local, rounds+2), msgs: make([]any, rounds+2)}
	for i := range r.marks {
		r.marks[i], r.msgs[i] = s.t, box(s.t)
		s.Advance()
	}
	return r
}

// NewRoundMsgs interns the TMsgs of rounds 0 … rounds+1 of cfg.
func NewRoundMsgs(cfg Config, rounds int) *RoundMsgs {
	r := InternRounds(cfg.Params, rounds, func(mark clock.Local) any { return TMsg{Mark: mark} })
	return &r
}

// Lookup returns round i's interned message when the table holds it for
// mark, bit for bit: a −0 mark is not the interned +0.
func (r *RoundMsgs) Lookup(i int, mark clock.Local) (any, bool) {
	if r != nil && i < len(r.marks) && math.Float64bits(float64(r.marks[i])) == math.Float64bits(float64(mark)) {
		return r.msgs[i], true
	}
	return nil, false
}

// msg returns round i's TMsg for mark, interned when the table holds it.
func (r *RoundMsgs) msg(i int, mark clock.Local) any {
	if m, ok := r.Lookup(i, mark); ok {
		return m
	}
	return TMsg{Mark: mark}
}

// Averager selects the ordinary averaging function applied after reduce_f;
// multiset owns it, with the one averaging step every automaton here runs.
type Averager = multiset.Averager

// Averaging choices: the paper's midpoint and the §7 mean.
const (
	Midpoint = multiset.Midpoint
	Mean     = multiset.Mean
)

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
	if cc.Averager != Midpoint && cc.Averager != Mean {
		return fmt.Errorf("core: unknown averager %v", cc.Averager)
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
	// An exchange's update is due Window + N·σ after its mark; at or past
	// the next sub-exchange's mark, that mark's timer is set for the past
	// and dropped (§2.2), and the process stops exchanging.
	if tail := float64(float64(cc.N) * cc.Stagger); cc.K > 1 && cc.SubPeriod <= cc.Window()+tail {
		return fmt.Errorf("core: K=%d exchanges need sub-period %v > collection window %v + N·σ %v (n=%d, σ=%v)",
			cc.K, cc.SubPeriod, cc.Window(), tail, cc.N, cc.Stagger)
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

// schedule is the §4.2 round timing every round-structured automaton here
// runs on: the marks Tⁱ = T⁰ + iP, FLAG, and the collection window after
// which the update is due.
type schedule struct {
	p, window float64     // round length P; collection window
	t         clock.Local // T: the current (sub-)exchange mark
	base      clock.Local // Tⁱ: beginning of the current round
	rnd       int         // round index i
	flag      phase
}

func newSchedule(p analysis.Params, window float64) schedule {
	return schedule{p: p.P, window: window, t: clock.Local(p.T0), base: clock.Local(p.T0), flag: phaseBroadcast}
}

// Mark returns T, the mark of the exchange in progress.
func (s *schedule) Mark() clock.Local { return s.t }

// Index returns the round index i.
func (s *schedule) Index() int { return s.rnd }

// Broadcasting reports FLAG = BCAST: the next timer broadcasts T rather than
// updating the clock.
func (s *schedule) Broadcasting() bool { return s.flag == phaseBroadcast }

// Collect ends the broadcast step: FLAG := UPDATE, and the update is due
// `extra` after Uⁱ = T + (1+ρ)(β+δ+ε).
func (s *schedule) Collect(extra float64) clock.Local {
	s.flag = phaseUpdate
	return s.t + clock.Local(s.window+extra)
}

// Advance moves to the next round: T := Tⁱ⁺¹ = Tⁱ + P, FLAG := BCAST.
func (s *schedule) Advance() {
	s.rnd++
	s.base += clock.Local(s.p)
	s.t = s.base
	s.flag = phaseBroadcast
}

// SkipTo fast-forwards an instance that has not run yet to its first mark at
// or after local time now, so a late starter joins the running schedule.
func (s *schedule) SkipTo(now clock.Local) {
	if now <= s.t {
		return
	}
	skip := math.Ceil(float64(now-s.t) / s.p)
	s.base += clock.Local(skip * s.p)
	s.t = s.base
	s.rnd = int(skip)
}

// Round is one §4.2 instance minus the correction it adjusts: the schedule,
// the fault budget f, δ, the averager and the arrival array ARR. Whoever
// holds it owns CORR and the timers — Proc runs one over sender ids; a
// hier.Member runs two over one CORR, slotted by cluster rank and by
// cluster; a Rejoiner gathers each candidate mark into one.
type Round struct {
	schedule
	f     int
	delta float64
	avg   Averager
	arr   []float64 // ARR: local arrival time of each slot's latest message
}

// NewRound builds the instance for p at its first mark T⁰, FLAG = BCAST,
// with one arrival slot per p.N, averaging with avg.
func NewRound(p analysis.Params, avg Averager) Round {
	return NewRoundOver(make([]float64, p.N), p, avg)
}

// NewRoundOver is NewRound over arr, len(arr) = p.N, which it sets to
// never-heard: a caller that builds many instances cuts their ARRs from one
// slab. NewRound and every slab go through it.
func NewRoundOver(arr []float64, p analysis.Params, avg Averager) Round {
	for i := range arr {
		arr[i] = math.Inf(-1) // never-heard sentinel; reduce_f discards them
	}
	return Round{
		schedule: newSchedule(p, p.Window()),
		f:        p.F, delta: p.Delta, avg: avg,
		arr: arr,
	}
}

// Record is §4.2's receive step, ARR[slot] := local.
func (r *Round) Record(slot int, local float64) { r.arr[slot] = local }

// Adjust returns ADJ = T + δ − AV, AV = mid(reduce_f(ARR)) or the §7 mean,
// averaged on a copy of ARR in scratch, which the averager reorders: the
// engine's Context.Scratch, one buffer per engine partition rather than one
// per process, so no per-round allocation; a scratch shorter than ARR
// (nil) is allocated. For the midpoint — which needs only the (f+1)-th
// smallest and largest arrivals — it quickselects instead of sorting,
// bit-identical to the sorting path.
func (r *Round) Adjust(scratch []float64) float64 {
	if len(scratch) < len(r.arr) {
		scratch = make([]float64, len(r.arr))
	}
	scratch = scratch[:len(r.arr)]
	copy(scratch, r.arr)
	av, err := r.avg.Average(scratch, r.f)
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

// Proc is the nonfaulty process automaton of §4.2. One Proc per process;
// construct with NewProcs, or NewProc for one on its own. It holds its
// Round by value, so recording an arrival is one indexed store, and adds
// what only the flat mesh has: the K sub-exchanges of §7 and the §9.3
// stagger.
type Proc struct {
	cfg  Config
	corr clock.Local
	rd   Round
	exch int        // sub-exchange index within the round, 0-based
	msgs *RoundMsgs // the run's interned round messages; nil boxes each
}

var (
	_ sim.CopyReceiver = (*Proc)(nil)
	_ sim.CorrHolder   = (*Proc)(nil)
)

// NewProc builds a process with the given initial correction (the paper's
// "initially whatever value is needed to attain required degree of
// synchronization": the experiment setup chooses initial corrections so that
// assumption A4 holds, or violates it on purpose). It boxes each round
// message it sends; a run's automata come from NewProcs, which share one
// table of them. Both go through the one initializer, init.
func NewProc(cfg Config, initialCorr clock.Local) *Proc {
	cfg = cfg.withDefaults()
	p := new(Proc)
	p.init(cfg, initialCorr, make([]float64, cfg.N), nil)
	return p
}

// NewProcs builds the automata of a run's processes, one per entry of corrs
// at that initial correction, broadcasting msgs' interned round messages
// (nil boxes each): all of them in one []Proc and their ARRs in one slab
// of cfg.N slots apiece, three allocations whatever the count. An id
// faulty reports (nil: none) gets no Proc and no ARR, and its slot of the
// result is left nil for the run to fill with its faulty automaton.
func NewProcs(cfg Config, corrs []clock.Local, msgs *RoundMsgs, faulty func(sim.ProcID) bool) []sim.Process {
	cfg = cfg.withDefaults()
	n, m := cfg.N, len(corrs)
	if faulty != nil {
		for i := range corrs {
			if faulty(sim.ProcID(i)) {
				m--
			}
		}
	}
	slab, arr := make([]Proc, m), make([]float64, m*n)
	procs := make([]sim.Process, len(corrs))
	j := 0
	for i, corr := range corrs {
		if faulty != nil && faulty(sim.ProcID(i)) {
			continue
		}
		p := &slab[j]
		p.init(cfg, corr, arr[j*n:(j+1)*n:(j+1)*n], msgs)
		procs[i] = p
		j++
	}
	return procs
}

// init makes p a fresh automaton for cfg (defaulted) at initialCorr, its
// ARR over arr, len(arr) = cfg.N.
func (p *Proc) init(cfg Config, initialCorr clock.Local, arr []float64, msgs *RoundMsgs) {
	*p = Proc{cfg: cfg, corr: initialCorr, rd: NewRoundOver(arr, cfg.Params, cfg.Averager), msgs: msgs}
}

// Corr implements sim.CorrHolder: the local time is Ph_p + CORR.
func (p *Proc) Corr() clock.Local { return p.corr }

// Round returns the current round index.
func (p *Proc) Round() int { return p.rd.rnd }

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
		p.rd.arr[m.From] = float64(p.local(ctx)) - float64(p.cfg.Stagger*float64(m.From))

	case (m.Kind == sim.KindStart || isOwnTimer(m)) && p.rd.flag == phaseBroadcast:
		if p.exch == 0 {
			ctx.Annotate(metrics.TagRoundBegin, float64(p.rd.rnd))
		}
		ctx.Broadcast(p.msgs.msg(p.rd.rnd, p.rd.t))
		// The window is extended to cover the staggered broadcast tail n·σ
		// when σ > 0.
		p.setTimer(ctx, p.rd.Collect(float64(float64(p.cfg.N)*p.cfg.Stagger)))

	case isOwnTimer(m) && p.rd.flag == phaseUpdate:
		p.update(ctx)
	}
}

// ReceiveCopies implements sim.CopyReceiver: §4.2's receive step for each
// copy, ARR[q] := local-time() at its delivery. The steps commute, since
// none sets a timer, sends, or moves CORR, which changes only at the
// process's own TIMER.
func (p *Proc) ReceiveCopies(ctx *sim.Context, from []sim.ProcID, at []clock.Real) {
	arr, corr, sigma := p.rd.arr, p.corr, p.cfg.Stagger
	for i, q := range from {
		arr[q] = float64(ctx.PhysAt(at[i])+corr) - float64(sigma*float64(q))
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
	adj := r.Adjust(ctx.Scratch(len(r.arr)))
	p.corr += clock.Local(adj)
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

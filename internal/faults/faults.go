// Package faults provides Byzantine process behaviors for the simulator.
// Faulty processes implement the same automaton interface as nonfaulty ones
// but are unconstrained (§2.1: "they can choose when they take steps and can
// do anything they want at a step").
//
// For the clock synchronization algorithm the only influence a faulty
// process has on a nonfaulty one is *when* its messages arrive (the ARR
// array stores arrival times; payload content is irrelevant to nonfaulty
// state). The strongest attacks therefore manipulate send timing
// per-recipient (two-faced behavior), which the fault-tolerant averaging
// function must — and does — withstand for up to f faults when n ≥ 3f+1.
package faults

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sim"
)

// Silent is a process that crashed before the execution began: it never
// sends anything. Its stale (never-updated) ARR entries at other processes
// are exactly the "faulty value" case of Lemma 6.
type Silent struct{}

var _ sim.Process = Silent{}

// Receive implements sim.Process.
func (Silent) Receive(*sim.Context, sim.Message) {}

// sendAt is one per-recipient timed send: its timer's payload is a pointer
// to it, in its round's slot of the strategy's ring, so that arming it
// boxes nothing.
type sendAt struct {
	to      sim.ProcID
	payload any
	slot    int
}

// String renders a timed send as a trace prints its timer: recipient and
// payload, the ring slot left out, exactly as the value struct of {to,
// payload} prints under %+v.
func (s *sendAt) String() string {
	return fmt.Sprintf("%+v", struct {
		to      sim.ProcID
		payload any
	}{s.to, s.payload})
}

// sendRing is a strategy's planned rounds: each slot holds a round's timed
// sends and how many of them have yet to fire. A slot is reused only once
// every send it holds has fired; a round planned while each slot still
// waits on one gets a new slot.
type sendRing struct {
	slots []sendSlot
	next  int
}

type sendSlot struct {
	sends   []sendAt
	pending int
}

// plan returns a free slot's m sends, counted pending, for a round to fill.
func (r *sendRing) plan(m int) []sendAt {
	j := -1
	for i := range r.slots {
		if k := (r.next + i) % len(r.slots); r.slots[k].pending == 0 {
			j = k
			break
		}
	}
	if j < 0 {
		r.slots = append(r.slots, sendSlot{})
		j = len(r.slots) - 1
	}
	r.next = j + 1
	sl := &r.slots[j]
	if cap(sl.sends) < m {
		sl.sends = make([]sendAt, m)
	}
	sl.sends, sl.pending = sl.sends[:m], m
	for i := range sl.sends {
		sl.sends[i].slot = j
	}
	return sl.sends
}

// fire relays a timed send whose timer went off, and reports whether m was
// one.
func (r *sendRing) fire(ctx *sim.Context, m sim.Message) bool {
	p, ok := m.Payload.(*sendAt)
	if ok {
		ctx.Send(p.to, p.payload)
		r.slots[p.slot].pending--
	}
	return ok
}

// nextRound is the timer payload that wakes a strategy for its next round.
type nextRound struct{}

// timing is what a timed-send strategy decides about a round. The strategy
// itself implements it and passes itself to timedSends.receive: a closure
// built per round would escape to the heap once a round (flat_n7_faulty paid
// +14 % allocations for that form), the strategy pointer costs nothing.
type timing interface {
	// begin prepares round i and returns the payload every copy carries.
	begin(round int, mark clock.Local) any
	// offset is where recipient q's copy is sent, in local time relative
	// to the mark; it is asked once per recipient in id order.
	offset(q sim.ProcID, n int) float64
	// wake turns the next round's mark into the time to plan that round,
	// early enough for its earliest copy.
	wake(next float64) float64
}

// timedSends is the schedule every per-recipient timing attack runs on its
// own (uncorrected) physical clock: a sendAt timer is relayed to its
// recipient; START or any other timer plans round i — one timed copy of one
// payload per recipient — and wakes the strategy before the next mark.
type timedSends struct {
	round int
	ring  sendRing
}

func (s *timedSends) receive(ctx *sim.Context, m sim.Message, cfg *core.Config, t timing) {
	if m.Kind != sim.KindStart && m.Kind != sim.KindTimer || s.ring.fire(ctx, m) {
		return
	}
	mark := cfg.T0 + float64(float64(s.round)*cfg.P)
	payload := t.begin(s.round, clock.Local(mark))
	n := ctx.N()
	sends := s.ring.plan(n)
	for q := range sends {
		at := mark + t.offset(sim.ProcID(q), n)
		sends[q].to, sends[q].payload = sim.ProcID(q), payload
		ctx.SetTimer(clock.Local(at), &sends[q])
	}
	s.round++
	ctx.SetTimer(clock.Local(t.wake(cfg.T0+float64(float64(s.round)*cfg.P))), nextRound{})
}

// TwoFaced runs the honest round schedule on its own (uncorrected) physical
// clock but delivers its round message *early* to recipients selected by
// EarlyTo and *late* to the rest: each round it sends at mark−Lead to the
// early group and mark+Lag to the late group. This plants arrival times at
// opposite extremes of different processes' windows, the canonical attempt
// to pull the group apart.
type TwoFaced struct {
	Cfg core.Config
	// Lead and Lag are local-time offsets (seconds); both should be small
	// enough that messages still land inside the honest windows, else they
	// are simply discarded by reduce as extreme values.
	Lead, Lag float64
	// EarlyTo selects recipients that get the early copy. Nil means the
	// lower half of the id space.
	EarlyTo func(to sim.ProcID) bool
	// MakePayload builds the message payload for a round mark; nil means
	// the main algorithm's TMsg. Baseline experiments substitute the
	// baseline's dialect (e.g. an ms.ClockMsg) so the attack reaches it.
	MakePayload func(mark clock.Local) any

	timedSends
}

var _ sim.Process = (*TwoFaced)(nil)

// Receive implements sim.Process.
func (t *TwoFaced) Receive(ctx *sim.Context, m sim.Message) { t.receive(ctx, m, &t.Cfg, t) }

func (t *TwoFaced) begin(_ int, mark clock.Local) any {
	if t.MakePayload != nil {
		return t.MakePayload(mark)
	}
	return core.TMsg{Mark: mark}
}

func (t *TwoFaced) offset(q sim.ProcID, n int) float64 {
	early := int(q) < n/2
	if t.EarlyTo != nil {
		early = t.EarlyTo(q)
	}
	if early {
		return -t.Lead
	}
	return t.Lag
}

func (t *TwoFaced) wake(next float64) float64 { return next - t.Lead - 1e-9 }

// Noise floods the system with Burst messages at random times each round —
// a babbling fault. Nonfaulty ARR entries get overwritten by whichever copy
// arrives last, landing at an arbitrary point of the window.
type Noise struct {
	Cfg   core.Config
	Burst int // messages per round per recipient; default 3

	round int
	ring  sendRing
}

var _ sim.Process = (*Noise)(nil)

// Receive implements sim.Process.
func (f *Noise) Receive(ctx *sim.Context, m sim.Message) {
	if m.Kind != sim.KindStart && m.Kind != sim.KindTimer || f.ring.fire(ctx, m) {
		return
	}
	burst := f.Burst
	if burst <= 0 {
		burst = 3
	}
	rng := ctx.Rand()
	mark := f.Cfg.T0 + float64(float64(f.round)*f.Cfg.P)
	window := f.Cfg.Window()
	sends := f.ring.plan(ctx.N() * burst)
	for q := 0; q < ctx.N(); q++ {
		for b := 0; b < burst; b++ {
			at := mark + float64(rng.Float64()*window)
			bogus := core.TMsg{Mark: clock.Local(mark + float64(rng.NormFloat64()*window))}
			sa := &sends[q*burst+b]
			sa.to, sa.payload = sim.ProcID(q), bogus
			ctx.SetTimer(clock.Local(at), sa)
		}
	}
	f.round++
	ctx.SetTimer(clock.Local(f.Cfg.T0+float64(float64(f.round)*f.Cfg.P)), nextRound{})
}

// StaleReplay follows the honest schedule but always broadcasts Offset
// seconds late with an old round mark — a process whose clock logic is
// stuck. Its arrivals sit at the late edge of every window.
type StaleReplay struct {
	Cfg    core.Config
	Offset float64

	round int
}

var _ sim.Process = (*StaleReplay)(nil)

// Receive implements sim.Process.
func (s *StaleReplay) Receive(ctx *sim.Context, m sim.Message) {
	if m.Kind != sim.KindStart && m.Kind != sim.KindTimer {
		return
	}
	oldMark := s.Cfg.T0 // always replays round 0's mark
	ctx.Broadcast(core.TMsg{Mark: clock.Local(oldMark)})
	s.round++
	next := s.Cfg.T0 + float64(float64(s.round)*s.Cfg.P) + s.Offset
	ctx.SetTimer(clock.Local(next), nil)
}

// LyingMark behaves exactly like an honest process in *timing* but lies
// about the mark value in its payload. Because nonfaulty processes use only
// arrival times, this fault is harmless to them — a useful control strategy
// in the fault-sweep experiment.
type LyingMark struct {
	Inner *core.Proc
}

var _ sim.Process = (*LyingMark)(nil)

// Receive implements sim.Process. It delegates to the honest automaton; the
// lie is immaterial in this implementation because honest receivers ignore
// payload content, so delegation is behaviorally identical and keeps the
// timing honest.
func (l *LyingMark) Receive(ctx *sim.Context, m sim.Message) {
	l.Inner.Receive(ctx, m)
}

// Corr exposes the inner correction.
func (l *LyingMark) Corr() clock.Local { return l.Inner.Corr() }

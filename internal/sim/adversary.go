package sim

import (
	"math"

	"repro/internal/clock"
)

// This file implements the adaptive-adversary seam of the send path. The
// paper's lower bound (ε(1−1/n), shown by a shifting argument
// in the companion Lundelius–Lynch work and cited in §1) is proved against
// an adversary that *reacts* to the execution: it watches the system and
// retimes message deliveries anywhere inside the [δ−ε, δ+ε] uncertainty
// window that assumption A3 grants the network. The schedule-driven faulty
// automata in internal/faults cannot express that adversary — they commit
// to their timing before the run starts — so the engine exposes it
// directly:
//
//   - an Adversary registered in Config gets one Retime pass over every
//     ordinary message copy, unicast or broadcast fan-out, between delay
//     sampling and routing;
//   - the AdversaryController clamps every retimed delay back into the
//     model's [δ−ε, δ+ε] envelope (NaN falls back to the sampled delay),
//     so assumptions A1–A3 hold *by construction* no matter what the
//     adversary returns — the upper-bound theorems keep their hypotheses
//     and the invariant checkers remain sound;
//   - the AdversaryView is the omniscient read side: every process's local
//     clock and the spread of the current configuration, read at the send
//     being retimed, and — via the ReceiveHook/SendHook interfaces — the
//     observed send and arrival times of every copy, in global order.
//     That order is what ties an adversary to the time-major drain: a
//     windowed engine has no global order of the sends and arrivals inside
//     a window.
//
// The controller is engine-owned and absent when no adversary is installed:
// the send path then pays one nil comparison per copy and never builds a
// hook message, which keeps the no-adversary steady state allocation-free.

// Adversary is an adaptive message-timing adversary: a single Retime pass
// over each ordinary message copy, between delay sampling and routing.
// Implementations return the base delay they want for the copy; the
// controller clamps the result to the delay model's [δ−ε, δ+ε] envelope,
// so a Retime cannot take an execution outside assumption A3 (returning
// NaN, ±Inf, or any out-of-envelope value degrades to the nearest legal
// delay — or the sampled one for NaN).
//
// Retime runs on the engine's single event-loop goroutine; implementations
// may keep per-run state without locking but must not retain the view.
// Adversaries that also implement ReceiveHook and/or SendHook observe
// deliveries and sends as they happen.
type Adversary interface {
	Retime(v *AdversaryView, from, to ProcID, sentAt clock.Real, base float64) float64
}

// SendHook observes every ordinary message copy on its way into the global
// buffer, after its delivery time is fixed, in the global order of sends:
// a fan-out announces its copies in pid order, and the local times the view
// reads are those at the send. Copies lost to the channel are not announced
// (they never enter the buffer).
type SendHook interface {
	OnSend(v *AdversaryView, m Message)
}

// ReceiveHook observes every ordinary message delivery, immediately before
// the recipient's Receive runs — the adversary-side record of observed
// arrival times.
type ReceiveHook interface {
	OnReceive(v *AdversaryView, m Message)
}

// AdversaryView is the omniscient read capability granted to a registered
// adversary: real time, the delay envelope, the fault assignment, every
// process's local clock and the nonfaulty spread. It is engine-owned and
// reused across calls; adversaries must not retain it.
type AdversaryView struct {
	eng *Engine
}

// Now returns the current real time.
func (v *AdversaryView) Now() clock.Real { return v.eng.now }

// Bounds returns the delay model's (δ, ε) — the envelope every retimed
// delay is clamped to.
func (v *AdversaryView) Bounds() (delta, eps float64) { return v.eng.delay.Bounds() }

// Faulty reports whether p is marked faulty.
func (v *AdversaryView) Faulty(p ProcID) bool { return v.eng.faulty[p] }

// LocalTime returns L_p(t); ok is false when p exposes no correction.
func (v *AdversaryView) LocalTime(p ProcID, t clock.Real) (clock.Local, bool) {
	return v.eng.LocalTime(p, t)
}

// LocalTimeSpread returns the minimum and maximum nonfaulty local time at t.
// At the current instant it is served from the engine's one pass per
// configuration (clocktable.go). Retime runs inside the sender's Receive, so
// the engine first re-reads that one process's correction: a sender that
// adjusted before it broadcast is seen adjusted, and the n Retime calls of
// one fan-out share a single scan.
func (v *AdversaryView) LocalTimeSpread(t clock.Real) (lo, hi clock.Local, count int) {
	return v.eng.LocalTimeSpread(t)
}

// AdversaryController is the engine-owned write side of the adversary seam:
// it holds the registered adversary, its hook capabilities (classified once
// at construction, like engine observers), the clamp envelope, and the
// shared view. One controller per engine, built at New when Config.Adversary
// is set.
type AdversaryController struct {
	adv  Adversary
	send SendHook    // non-nil iff adv observes sends
	recv ReceiveHook // non-nil iff adv observes deliveries
	view AdversaryView
	lo   float64 // δ−ε: earliest legal base delay
	hi   float64 // δ+ε: latest legal base delay
}

// newAdversaryController classifies the adversary's capabilities and caches
// the clamp envelope from the validated delay model.
func newAdversaryController(e *Engine, adv Adversary, delta, eps float64) *AdversaryController {
	c := &AdversaryController{adv: adv, lo: delta - eps, hi: delta + eps}
	c.view.eng = e
	if h, ok := adv.(SendHook); ok {
		c.send = h
	}
	if h, ok := adv.(ReceiveHook); ok {
		c.recv = h
	}
	return c
}

// Clamp forces a desired base delay into the [δ−ε, δ+ε] envelope, falling
// back to the honestly sampled delay for NaN. Exported for tests asserting
// the clamp contract directly.
func (c *AdversaryController) Clamp(desired, sampled float64) float64 {
	if math.IsNaN(desired) {
		return sampled
	}
	if desired < c.lo {
		return c.lo
	}
	if desired > c.hi {
		return c.hi
	}
	return desired
}

// retime runs the adversary's pass over one copy and clamps the result.
func (c *AdversaryController) retime(from, to ProcID, sentAt clock.Real, base float64) float64 {
	return c.Clamp(c.adv.Retime(&c.view, from, to, sentAt, base), base)
}

// onSend dispatches the send hook, if the adversary has one.
func (c *AdversaryController) onSend(m Message) {
	if c.send != nil {
		c.send.OnSend(&c.view, m)
	}
}

// onReceive dispatches the receive hook, if the adversary has one.
func (c *AdversaryController) onReceive(m Message) {
	if c.recv != nil {
		c.recv.OnReceive(&c.view, m)
	}
}

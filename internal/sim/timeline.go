package sim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/clock"
)

// This file implements the engine's timeline stage: a script of mutations to
// apply to live engine state at scheduled real times. The timeline is what
// the scenario DSL (internal/scenario) lowers its event scripts onto —
// crash a process at t, heal a partition, shift the delay band, swap the
// adversary — without the scenario runner having to chop Engine.Run into
// segments or the event queue having to carry non-message entries.
//
// Actions fire on the engine's single event-loop goroutine, interleaved
// deterministically with deliveries: an action scheduled at real time t runs
// after every delivery strictly before t and before any delivery at or after
// t (ties go to the action — a state swap at t governs the traffic of t).
// Actions never consume queue slots, draw from the delay RNG, or perturb the
// (DeliverAt, seq) order, so an empty timeline leaves executions
// byte-identical and the steady state allocation-free.
//
// The swap hooks actions typically call — SetChannel, SetDelayModel,
// SetAdversary — are the ones New configures the send path with, so a
// swapped-in channel or model gets its fast paths exactly as if it had been
// configured up front. Delivery times already fixed at send time are
// untouched: a swap governs traffic sent after it, which is the §2.2 buffer
// semantics (a message's delivery time is decided when it enters the
// buffer).

// TimedAction is one scheduled mutation of engine state: at real time At,
// the engine invokes Do with itself. Name labels the action in errors and
// debugging output.
type TimedAction struct {
	At   clock.Real
	Name string
	Do   func(e *Engine)
}

// initTimeline installs the configured actions, sorted by time with the
// configuration order preserved among ties.
func (e *Engine) initTimeline(actions []TimedAction) error {
	if len(actions) == 0 {
		return nil
	}
	tl := make([]TimedAction, len(actions))
	copy(tl, actions)
	for i, a := range tl {
		if a.Do == nil {
			return fmt.Errorf("sim: timeline action %d (%q) has nil Do", i, a.Name)
		}
	}
	sort.SliceStable(tl, func(i, j int) bool { return tl[i].At < tl[j].At })
	e.timeline = tl
	return nil
}

// TimelineRemaining returns how many scheduled actions have not fired yet.
func (e *Engine) TimelineRemaining() int { return len(e.timeline) - e.tlIdx }

// fireTimeline runs every action due at or before bound (the next delivery
// time or the run horizon, whichever is earlier), advancing real time to
// each action's scheduled instant. Returns true if any action fired, in
// which case the caller must re-peek the queue: an action may have swapped
// state that pushes or reorders future traffic.
func (e *Engine) fireTimeline(bound clock.Real) bool {
	fired := false
	for e.tlIdx < len(e.timeline) && e.timeline[e.tlIdx].At <= bound {
		a := e.timeline[e.tlIdx]
		e.tlIdx++
		// An action scheduled before the current instant (e.g. before the
		// first START) fires immediately; time never moves backward.
		e.advance(a.At)
		// The action may change any correction (a crash/rejoin wrapper
		// freezing a stale CORR): reads made inside it re-read every row of
		// the clock table, and so does the engine once it returns. The
		// samplers fire immediately before and after it.
		e.sample(true)
		e.acting = actingAll
		a.Do(e)
		e.acting = actingNone
		if e.tbl.ids != nil {
			e.loadTable()
		}
		e.sample(false)
		fired = true
	}
	return fired
}

// SetChannel swaps the delivery channel for all traffic sent from now on;
// the reliable FullMesh is routed inline. Copies already in the buffer keep
// the delivery times the old channel assigned them. A nil channel restores
// the reliable full mesh. A windowed engine's channel is fixed at New — its
// partitions route the rows they redraw with it — so a swap there panics.
func (e *Engine) SetChannel(ch Channel) {
	if e.part != nil {
		panic("sim: SetChannel on a windowed engine (Config.Shards ≥ 1), whose partitions route the rows in flight with the channel of New")
	}
	if ch == nil {
		ch = FullMesh{}
	}
	e.channel = ch
	_, e.mesh = ch.(FullMesh)
}

// SetDelayModel swaps the delay substrate for all traffic sent from now on,
// validating assumption A3 (0 ≤ ε ≤ δ); a broadcast samples the model with
// one SampleAll call when it implements BatchDelayModel (UniformDelay), any
// other model one Sample a copy. When an adversary is installed, its clamp
// envelope follows the new band, so retiming stays A3-legal against the
// substrate actually in force. The swapped-in model sees the same RNG
// stream the old one was drawing from (scenario delay-band shifts stay
// deterministic). A windowed engine's model is fixed at New: its
// partitions redraw rows in flight with it (CounterDelayModel).
func (e *Engine) SetDelayModel(m DelayModel) error {
	if m == nil {
		return errors.New("sim: SetDelayModel: nil delay model")
	}
	if e.part != nil {
		return errors.New("sim: SetDelayModel on a windowed engine (Config.Shards ≥ 1), whose rows in flight are redrawn with the model of New")
	}
	d, eps := m.Bounds()
	if d < eps || eps < 0 {
		return fmt.Errorf("sim: SetDelayModel: delay bounds δ=%v ε=%v violate assumption A3 (0 ≤ ε ≤ δ)", d, eps)
	}
	e.delay = m
	e.batch, _ = m.(BatchDelayModel)
	e.counter, e.draws = nil, -1
	if c, ok := m.(CounterDelayModel); ok && c.DrawsPerCopy() >= 0 {
		e.counter, e.draws = c, c.DrawsPerCopy()
	}
	if e.advCtl != nil {
		e.advCtl.lo, e.advCtl.hi = d-eps, d+eps
	}
	return nil
}

// SetAdversary installs, replaces, or (with nil) removes the adaptive
// adversary mid-run. The controller is rebuilt with the current delay
// model's clamp envelope and the adversary's hook capabilities; with nil the
// send path is back to the allocation-free one with no retiming.
func (e *Engine) SetAdversary(adv Adversary) {
	if adv == nil {
		e.advCtl = nil
		return
	}
	d, eps := e.delay.Bounds()
	e.advCtl = newAdversaryController(e, adv, d, eps)
}

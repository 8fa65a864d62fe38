package faults

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sim"
)

// This file holds the adaptive adversaries: strategies that react to the
// live execution through the engine's send path
// (sim.Adversary + ReceiveHook/SendHook) instead of committing to a
// schedule before the run starts. Their write capability is clamped by the
// engine to the [δ−ε, δ+ε] envelope of assumption A3, so they model
// exactly the adversary of the paper's lower-bound shifting argument: the
// network may place any delivery anywhere inside its uncertainty window,
// and nothing else.
//
//   - skewmax reproduces the lower bound experimentally: it greedily
//     retimes every delivery to widen the nonfaulty local-time spread,
//     driving executions toward (and past) ε(1−1/n) with zero faulty
//     processes — delay uncertainty alone is the weapon.
//   - splitter is the faulty-side counterpart: its members run the
//     classic two-faced schedule, but the *split* — who is pulled early,
//     who late — is chosen live from observed arrivals, bisecting the
//     nonfaulty set along its current clock ordering, and the members'
//     copies are additionally edge-retimed in the same directions.
//
// Adaptive strategies register through the same faults.Register as the
// schedule-driven ones (so cmd/wlsim -adversary resolves them by name) but
// are excluded from the E17 conformance sweep via Strategy.Adaptive; the
// lower-bound experiment E18 is their harness.

// SkewMax is the greedy shifting-argument adversary. For every message
// copy to a nonfaulty receiver it reads the current nonfaulty local-time
// spread (one cached O(1) lookup) and pins the copy's delay to the window
// edge that reinforces the receiver's side of the split: receivers in the
// upper half of the spread get δ−ε (an early arrival reads as "everyone
// else is ahead", pulling the receiver's correction up — true for the
// paper's algorithm, [LM]'s egocentric mean, and [ST]'s acceptance rule
// alike), the lower half gets δ+ε. The two halves accumulate opposite
// ε-sized estimation errors every round, which no averaging function can
// distinguish from honest delays — the executions are literally A3-legal —
// so the steady spread is pushed to the scale of the ε(1−1/n) bound.
type SkewMax struct{}

var _ sim.Adversary = SkewMax{}

// Retime implements sim.Adversary.
func (SkewMax) Retime(v *sim.AdversaryView, _, to sim.ProcID, _ clock.Real, base float64) float64 {
	if v.Faulty(to) {
		return base
	}
	now := v.Now()
	lt, ok := v.LocalTime(to, now)
	if !ok {
		return base
	}
	lo, hi, count := v.LocalTimeSpread(now)
	if count < 2 {
		return base
	}
	d, e := v.Bounds()
	if float64(hi-lo) < 1e-12 {
		// Degenerate spread (perfectly synchronized clocks): seed an
		// asymmetry by id parity so the greedy split has something to
		// reinforce next round.
		if int(to)%2 == 0 {
			return d - e
		}
		return d + e
	}
	if lt >= (lo+hi)/2 {
		return d - e // upper half: early arrivals drag it further up
	}
	return d + e // lower half: late arrivals drag it further down
}

// splitState is the observation record shared between the splitter's
// two-faced automata and its retiming adversary: the most recent broadcast
// instant observed (via delivered copies) per nonfaulty sender. Broadcast
// order tracks clock order — a faster logical clock reaches its round mark
// earlier in real time — so ranking processes by it bisects the nonfaulty
// set without ever reading a clock directly.
type splitState struct {
	lastSend []clock.Real
	seen     []bool
	member   []bool
}

// fastHalf reports whether q currently ranks in the earlier-broadcasting
// half of the observed nonfaulty processes (ties broken by id). Before q
// has been observed it falls back to an id-parity split, which seeds the
// first round.
func (s *splitState) fastHalf(q sim.ProcID) bool {
	if int(q) >= len(s.seen) || !s.seen[q] {
		return int(q)%2 == 0
	}
	earlier, total := 0, 0
	for p := range s.lastSend {
		if !s.seen[p] || s.member[p] {
			continue
		}
		total++
		if s.lastSend[p] < s.lastSend[q] || (s.lastSend[p] == s.lastSend[q] && p < int(q)) {
			earlier++
		}
	}
	return earlier*2 < total
}

// splitterAdv is the network half of the splitter: it records observed
// arrivals into the shared splitState and edge-retimes the members' copies
// along the current split.
type splitterAdv struct {
	st         *splitState
	delta, eps float64
}

var (
	_ sim.Adversary   = (*splitterAdv)(nil)
	_ sim.ReceiveHook = (*splitterAdv)(nil)
)

// OnReceive implements sim.ReceiveHook: every delivered nonfaulty copy
// reveals its sender's broadcast instant (SentAt rides in the message; an
// eavesdropper reconstructs it from the arrival and the window).
func (a *splitterAdv) OnReceive(v *sim.AdversaryView, m sim.Message) {
	if v.Faulty(m.From) {
		return
	}
	a.st.lastSend[m.From] = m.SentAt
	a.st.seen[m.From] = true
}

// Retime implements sim.Adversary: copies sent by members ride the window
// edge matching the recipient's side of the split; honest traffic passes
// untouched.
func (a *splitterAdv) Retime(v *sim.AdversaryView, from, to sim.ProcID, _ clock.Real, base float64) float64 {
	if int(from) >= len(a.st.member) || !a.st.member[from] || v.Faulty(to) {
		return base
	}
	if a.st.fastHalf(to) {
		return a.delta - a.eps
	}
	return a.delta + a.eps
}

func init() {
	Register(Strategy{
		Name: "skewmax",
		Desc: "adaptive: retimes every delivery inside [δ−ε, δ+ε] to widen the nonfaulty spread toward ε(1−1/n)",
		// The attack is pure delay retiming; it needs no faulty automata
		// (the lower bound holds even with f = 0).
		WantsMembers: false,
		BuildAdaptive: func(cfg core.Config, members []sim.ProcID, _ int64) ([]sim.Process, sim.Adversary) {
			// Members are incidental (callers normally pass none); any that
			// are named simply stay silent.
			silent := each(func(core.Config, int, int64, float64) sim.Process { return Silent{} })
			return silent(cfg, members, 0, 0), SkewMax{}
		},
	})
	Register(Strategy{
		Name:         "splitter",
		Desc:         "adaptive: two-faced sends timed off observed arrivals, bisecting the nonfaulty set",
		WantsMembers: true,
		BuildAdaptive: func(cfg core.Config, members []sim.ProcID, _ int64) ([]sim.Process, sim.Adversary) {
			st := &splitState{
				lastSend: make([]clock.Real, cfg.N),
				seen:     make([]bool, cfg.N),
				member:   make([]bool, cfg.N),
			}
			for _, id := range members {
				st.member[id] = true
			}
			adv := &splitterAdv{st: st, delta: cfg.Delta, eps: cfg.Eps}
			// The classic two-faced schedule, but the early/late split
			// re-evaluates against the live observation record on every
			// send decision.
			pull := cfg.Beta - cfg.Eps
			out := each(func(core.Config, int, int64, float64) sim.Process {
				return &TwoFaced{Cfg: cfg, Lead: pull, Lag: pull, EarlyTo: st.fastHalf}
			})(cfg, members, 0, 0)
			return out, adv
		},
	})
}

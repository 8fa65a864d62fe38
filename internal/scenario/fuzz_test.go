package scenario

import (
	"cmp"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// FuzzScenario mutates parsed scenario documents, clamps them back into the
// paper's standing assumptions (A1–A3, fault load under the n ≥ 3f+1
// tolerance), and demands every theorem invariant hold on the resulting run
// — the DSL analogue of the E17 conformance claim: no expressible chaos
// script inside the assumptions may break the guarantees.
//
// Parse/Validate rejections are fine (that is their job); what must never
// happen is a panic, a harness error, or an invariant violation on a
// sanitized scenario.
func FuzzScenario(f *testing.F) {
	corpus, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range corpus {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // malformed JSON is rejected, not interesting
		}
		sanitize(s)
		if err := s.Validate(); err != nil {
			// The sanitizer aims for validity but does not replicate every
			// rule; a residual rejection is a correct outcome.
			return
		}
		rep, err := Run(s)
		if err != nil {
			t.Fatalf("sanitized scenario failed to run: %v\nscenario: %+v", err, s)
		}
		if suite := rep.Result.Invariants; suite == nil || !suite.Ok() {
			t.Fatalf("invariant violated on an A1–A3-valid scenario at f < n/3:\n%s\nscenario: %+v",
				suite.Summary(), s)
		}
	})
}

// sanitize clamps a fuzzer-mutated scenario into the assumptions' validity
// region: small fault-tolerant topology, default paper parameters unless
// the overrides validate, substrate and delay-shifts inside the A3 envelope,
// fault load (strategy members plus crash gates) at most f, and no
// partitions or cuts (losing more than f senders is legitimately fatal —
// the partition-heal corpus entry demonstrates exactly that).
func sanitize(s *Scenario) {
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	s.Name = "fuzz"
	n := 4 + abs(s.Topology.N)%6 // 4..9
	f := (n - 1) / 3             // largest tolerance A2 admits
	s.Topology.N, s.Topology.F = n, f

	// Parameter overrides survive only if they validate as a whole.
	if (core.Config{Params: s.params()}).Validate() != nil {
		s.Params = Params{}
	}
	p := s.params()

	// Keep runs integration-sized.
	s.Rounds = abs(s.Rounds) % 13
	if s.WarmupRounds < 0 || s.WarmupRounds > s.rounds() {
		s.WarmupRounds = 0
	}
	if s.Seed < 0 {
		s.Seed = -s.Seed
	}

	// Substrate: drop an unknown model, or a band that violates A3 or
	// escapes the envelope.
	if _, m := s.substrate(p); m == nil || s.checkBand("delay", m, p) != nil {
		s.Delay = Delay{}
	}
	model, _ := s.substrate(p)

	// Fault strategy: must resolve, and its member count must fit under f.
	budget := f
	if fs := s.Topology.Faults; fs != nil {
		strat, err := faults.ByName(fs.Strategy)
		switch {
		case err != nil:
			s.Topology.Faults = nil
		case strat.Adaptive() && !strat.WantsMembers:
			fs.Members = nil // pure delivery adversary, clamped by the controller
		default:
			members := []int{}
			seen := map[int]bool{}
			for _, m := range fs.Members {
				m = abs(m) % n
				if !seen[m] && len(members) < budget {
					seen[m] = true
					members = append(members, m)
				}
			}
			if len(members) == 0 {
				members = []int{n - 1}
			}
			fs.Members = members
			budget -= len(members)
		}
	}

	// Events: keep only kinds that stay inside the assumptions, with times
	// clamped into the horizon and the crash/rejoin state machine enforced.
	horizon := s.horizon(p)
	faultMember := map[int]bool{}
	if fs := s.Topology.Faults; fs != nil {
		for _, m := range fs.Members {
			faultMember[m] = true
		}
	}
	down := map[int]bool{}
	gated := map[int]bool{}
	kept := s.Events[:0]
	for _, ev := range s.Events {
		if ev.At < 0 {
			ev.At = -ev.At
		}
		for ev.At >= horizon {
			ev.At /= 2
		}
		switch ev.Kind {
		case KindCrash:
			if ev.Proc == nil {
				continue
			}
			q := abs(*ev.Proc) % n
			if faultMember[q] || down[q] {
				continue
			}
			if !gated[q] && len(gated) >= budget {
				continue // the gate would push the fault load past f
			}
			gated[q], down[q] = true, true
			ev.Proc = &q
		case KindRejoin:
			if ev.Proc == nil {
				continue
			}
			q := abs(*ev.Proc) % n
			if !down[q] {
				continue
			}
			down[q] = false
			ev.Proc = &q
		case KindHeal:
			// Always safe (the sanitizer admits no partitions or cuts, so
			// heal is a no-op swap back to the full mesh).
		case KindDelayShift:
			m := delayModel(cmp.Or(ev.Model, model), ev.Delta, ev.Eps)
			if m == nil || s.checkBand("fuzz", m, p) != nil {
				continue
			}
		case KindAdversarySwap:
			if ev.Strategy != "none" {
				strat, err := faults.ByName(ev.Strategy)
				if err != nil || !strat.Adaptive() {
					continue // schedule-driven halves cannot be swapped in
				}
			}
		default:
			// Partitions, cuts and unknown kinds are out of scope: losing
			// more than f senders legitimately breaks the theorems.
			continue
		}
		kept = append(kept, ev)
	}
	s.Events = kept

	// The fuzzer asserts the full suite directly; declared assertions would
	// only second-guess it.
	s.Assertions = Assertions{Invariants: true}
}

package scenario

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// defaultRounds is the scenario-harness default run length; scenarios are
// integration-sized, not sweeps.
const defaultRounds = 12

// maxRounds bounds a single scenario run; a longer script is a sweep and
// belongs in an experiment.
const maxRounds = 1000

// invariantNames is the set of checker names ExpectViolations may target,
// matching internal/invariant's Checker.Name values.
var invariantNames = map[string]bool{
	"agreement":    true,
	"validity":     true,
	"monotonicity": true,
	"adjustment":   true,
}

// params returns the resolved paper parameters: analysis.Default(n, f) with
// the scenario's non-zero overrides applied.
func (s *Scenario) params() analysis.Params {
	p := analysis.Default(s.Topology.N, s.Topology.F)
	if s.Params.Rho != 0 {
		p.Rho = s.Params.Rho
	}
	if s.Params.Delta != 0 {
		p.Delta = s.Params.Delta
	}
	if s.Params.Eps != 0 {
		p.Eps = s.Params.Eps
	}
	if s.Params.Beta != 0 {
		p.Beta = s.Params.Beta
	}
	if s.Params.P != 0 {
		p.P = s.Params.P
	}
	if s.Params.T0 != 0 {
		p.T0 = s.Params.T0
	}
	return p
}

// rounds returns the resolved run length.
func (s *Scenario) rounds() int {
	if s.Rounds == 0 {
		return defaultRounds
	}
	return s.Rounds
}

// seed returns the resolved base seed.
func (s *Scenario) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// substrate resolves the scenario's delay spec through delayModels: the
// model name ("uniform" when empty) and the model over the band, whose zero
// δ and ε inherit the parameters'. The model is nil for an unknown name.
func (s *Scenario) substrate(p analysis.Params) (string, sim.DelayModel) {
	model := cmp.Or(s.Delay.Model, "uniform")
	return model, delayModel(model, cmp.Or(s.Delay.Delta, p.Delta), cmp.Or(s.Delay.Eps, p.Eps))
}

// horizon is a lower bound on the real-time end of the run: the experiment
// harness ends it at tmax⁰ plus these terms, and tmax⁰ ≥ 0, so an event
// before it always fires. exp.Run checks the exact horizon.
func (s *Scenario) horizon(p analysis.Params) float64 {
	return float64(float64(s.rounds())*p.P*(1+float64(2*p.Rho))) + float64(2*p.Window()) + p.Delta + 1
}

// Validate checks the scenario end to end, as Run does before it runs:
// identity, topology, parameter assumptions (A1–A3 via
// analysis.Params.Validate), the substrate band, the fault placement, the
// event script (kinds, targets, ordering, the crash/rejoin state machine,
// the run horizon), and the assertions. It lowers the scenario to check it,
// so the two can never disagree. Every path returns a descriptive error — a
// malformed scenario file must never panic the harness.
func (s *Scenario) Validate() error {
	_, err := lower(s)
	return err
}

// checkBand validates a substrate's band (δ, ε): internally consistent
// (0 ≤ ε ≤ δ, δ > 0) and within the parameters' A3 envelope [δ−ε, δ+ε] — a
// substrate escaping the envelope would deliver messages the analysis says
// cannot exist.
func (s *Scenario) checkBand(what string, m sim.DelayModel, p analysis.Params) error {
	d, e := m.Bounds()
	if e < 0 || d < e || d <= 0 {
		return fmt.Errorf("scenario %s: %s band δ=%v ε=%v violates assumption A3 (need 0 ≤ ε ≤ δ, δ > 0)", s.Name, what, d, e)
	}
	if d-e < p.Delta-p.Eps || d+e > p.Delta+p.Eps {
		return fmt.Errorf("scenario %s: %s band [%v, %v] escapes the parameters' A3 envelope [δ−ε, δ+ε] = [%v, %v]",
			s.Name, what, d-e, d+e, p.Delta-p.Eps, p.Delta+p.Eps)
	}
	return nil
}

// validateCrashRejoinOrder walks the script in firing order (time, then
// file order among ties) and checks every rejoin resumes a process that is
// actually down, and every crash hits a process that is up.
func (s *Scenario) validateCrashRejoinOrder() error {
	order := make([]int, 0, len(s.Events))
	for i := range s.Events {
		order = append(order, i)
	}
	sort.SliceStable(order, func(a, b int) bool { return s.Events[order[a]].At < s.Events[order[b]].At })
	down := map[int]bool{}
	for _, i := range order {
		ev := s.Events[i]
		switch ev.Kind {
		case KindCrash:
			if down[*ev.Proc] {
				return fmt.Errorf("scenario %s: events[%d]: crash of proc %d at t=%v, but it is already down", s.Name, i, *ev.Proc, ev.At)
			}
			down[*ev.Proc] = true
		case KindRejoin:
			if !down[*ev.Proc] {
				return fmt.Errorf("scenario %s: events[%d]: rejoin of proc %d at t=%v without a prior crash", s.Name, i, *ev.Proc, ev.At)
			}
			down[*ev.Proc] = false
		}
	}
	return nil
}

func (s *Scenario) validateAssertions() error {
	a := s.Assertions
	if a.SkewMaxGammas < 0 {
		return fmt.Errorf("scenario %s: assertions.skew_max_gammas = %v is negative", s.Name, a.SkewMaxGammas)
	}
	if len(a.ExpectViolations) > 0 && !a.Invariants {
		return fmt.Errorf("scenario %s: assertions.expect_violations requires assertions.invariants", s.Name)
	}
	seen := map[string]bool{}
	for _, name := range a.ExpectViolations {
		if !invariantNames[name] {
			return fmt.Errorf("scenario %s: assertions.expect_violations names unknown invariant %q (agreement, validity, monotonicity, adjustment)", s.Name, name)
		}
		if seen[name] {
			return fmt.Errorf("scenario %s: assertions.expect_violations names %q twice", s.Name, name)
		}
		seen[name] = true
	}
	crashed := map[int]bool{}
	for _, ev := range s.Events {
		if ev.Kind == KindRejoin && ev.Proc != nil {
			crashed[*ev.Proc] = true
		}
	}
	for _, q := range a.ExpectRejoined {
		if q < 0 || q >= s.Topology.N {
			return fmt.Errorf("scenario %s: assertions.expect_rejoined process %d out of range [0, %d)", s.Name, q, s.Topology.N)
		}
		if !crashed[q] {
			return fmt.Errorf("scenario %s: assertions.expect_rejoined names proc %d, but the script never rejoins it", s.Name, q)
		}
	}
	return nil
}

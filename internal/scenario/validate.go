package scenario

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faults"
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

// delayBand resolves the substrate band, inheriting the parameters' (δ, ε)
// where the spec leaves zeros.
func (s *Scenario) delayBand(p analysis.Params) (model string, d, e float64) {
	model = s.Delay.Model
	if model == "" {
		model = "uniform"
	}
	d = s.Delay.Delta
	if d == 0 {
		d = p.Delta
	}
	e = s.Delay.Eps
	if e == 0 && model != "constant" {
		e = p.Eps
	}
	if model == "constant" {
		e = 0
	}
	return model, d, e
}

// horizon approximates the real-time end of the run the same way the
// experiment harness computes it (tmax⁰ is at most β): events must fire
// inside it or they would silently never happen.
func (s *Scenario) horizon(p analysis.Params) float64 {
	return p.Beta + float64(float64(s.rounds())*p.P*(1+float64(2*p.Rho))) + float64(2*p.Window()) + p.Delta + 1
}

// Validate checks the scenario end to end: identity, topology, parameter
// assumptions (A1–A3 via analysis.Params.Validate), the substrate band, the
// event script (kinds, targets, ordering, the crash/rejoin state machine,
// the run horizon), and the assertions. Every path returns a descriptive
// error — a malformed scenario file must never panic the harness.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	n, f := s.Topology.N, s.Topology.F
	if n < 1 {
		return fmt.Errorf("scenario %s: topology.n = %d must be positive", s.Name, n)
	}
	if f < 0 {
		return fmt.Errorf("scenario %s: topology.f = %d must be nonnegative", s.Name, f)
	}
	if s.Rounds < 0 || s.Rounds > maxRounds {
		return fmt.Errorf("scenario %s: rounds = %d outside [0, %d]", s.Name, s.Rounds, maxRounds)
	}
	if s.WarmupRounds < 0 || s.WarmupRounds > s.rounds() {
		return fmt.Errorf("scenario %s: warmup_rounds = %d outside [0, rounds=%d]", s.Name, s.WarmupRounds, s.rounds())
	}
	p := s.params()
	cfg := core.Config{Params: p}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("scenario %s: parameters: %w", s.Name, err)
	}
	if err := s.validateDelay(p); err != nil {
		return err
	}
	if err := s.validateFaults(); err != nil {
		return err
	}
	if err := s.validateEvents(p); err != nil {
		return err
	}
	return s.validateAssertions()
}

func (s *Scenario) validateDelay(p analysis.Params) error {
	model, d, e := s.delayBand(p)
	switch model {
	case "uniform", "constant", "extremal", "center":
	default:
		return fmt.Errorf("scenario %s: unknown delay model %q (uniform, constant, extremal, center)", s.Name, model)
	}
	return s.checkBand("delay", d, e, p)
}

// checkBand validates a substrate band (d, e): internally consistent
// (0 ≤ e ≤ d) and within the parameters' A3 envelope [δ−ε, δ+ε] — a
// substrate escaping the envelope would deliver messages the analysis says
// cannot exist.
func (s *Scenario) checkBand(what string, d, e float64, p analysis.Params) error {
	if e < 0 || d < e || d <= 0 {
		return fmt.Errorf("scenario %s: %s band δ=%v ε=%v violates assumption A3 (need 0 ≤ ε ≤ δ, δ > 0)", s.Name, what, d, e)
	}
	if d-e < p.Delta-p.Eps || d+e > p.Delta+p.Eps {
		return fmt.Errorf("scenario %s: %s band [%v, %v] escapes the parameters' A3 envelope [δ−ε, δ+ε] = [%v, %v]",
			s.Name, what, d-e, d+e, p.Delta-p.Eps, p.Delta+p.Eps)
	}
	return nil
}

func (s *Scenario) validateFaults() error {
	fs := s.Topology.Faults
	if fs == nil {
		return nil
	}
	if _, err := faults.ByName(fs.Strategy); err != nil {
		return fmt.Errorf("scenario %s: topology.faults: %w", s.Name, err)
	}
	seen := map[int]bool{}
	for _, m := range fs.Members {
		if m < 0 || m >= s.Topology.N {
			return fmt.Errorf("scenario %s: topology.faults member %d out of range [0, %d)", s.Name, m, s.Topology.N)
		}
		if seen[m] {
			return fmt.Errorf("scenario %s: topology.faults member %d listed twice", s.Name, m)
		}
		seen[m] = true
	}
	if len(fs.Members) >= s.Topology.N {
		return fmt.Errorf("scenario %s: topology.faults claims all %d processes", s.Name, s.Topology.N)
	}
	return nil
}

func (s *Scenario) validateEvents(p analysis.Params) error {
	n := s.Topology.N
	horizon := s.horizon(p)
	// A crash/rejoin may not target a fault member, explicit or placed by
	// default: the placement is the one faults.Place resolves.
	faultMember := map[int]bool{}
	if fs := s.Topology.Faults; fs != nil {
		strat, _ := faults.ByName(fs.Strategy) // validateFaults resolved it
		for _, m := range strat.Members(core.Config{Params: p}, fs.members()) {
			faultMember[int(m)] = true
		}
	}
	for i, ev := range s.Events {
		where := fmt.Sprintf("scenario %s: events[%d] (%s)", s.Name, i, ev.Kind)
		if ev.At < 0 {
			return fmt.Errorf("%s: at = %v is negative", where, ev.At)
		}
		if ev.At >= horizon {
			return fmt.Errorf("%s: at = %v is past the run horizon ≈ %.3gs (%d rounds of P = %v) — it would never fire",
				where, ev.At, horizon, s.rounds(), p.P)
		}
		switch ev.Kind {
		case KindCrash, KindRejoin:
			if ev.Proc == nil {
				return fmt.Errorf("%s: missing proc", where)
			}
			if q := *ev.Proc; q < 0 || q >= n {
				return fmt.Errorf("%s: proc %d out of range [0, %d)", where, q, n)
			}
			if faultMember[*ev.Proc] {
				return fmt.Errorf("%s: proc %d is already a member of fault strategy %q", where, *ev.Proc, s.Topology.Faults.Strategy)
			}
		case KindPartition:
			if len(ev.Groups) < 2 {
				return fmt.Errorf("%s: needs at least 2 groups, got %d", where, len(ev.Groups))
			}
			seen := map[int]bool{}
			for _, g := range ev.Groups {
				if len(g) == 0 {
					return fmt.Errorf("%s: empty group", where)
				}
				for _, q := range g {
					if q < 0 || q >= n {
						return fmt.Errorf("%s: process %d out of range [0, %d)", where, q, n)
					}
					if seen[q] {
						return fmt.Errorf("%s: process %d appears in two groups", where, q)
					}
					seen[q] = true
				}
			}
		case KindCut:
			if len(ev.Links) == 0 {
				return fmt.Errorf("%s: no links", where)
			}
			for _, l := range ev.Links {
				if len(l) != 2 {
					return fmt.Errorf("%s: link %v must be a [from, to] pair", where, l)
				}
				a, b := l[0], l[1]
				if a < 0 || a >= n || b < 0 || b >= n {
					return fmt.Errorf("%s: link [%d, %d] out of range [0, %d)", where, a, b, n)
				}
				if a == b {
					return fmt.Errorf("%s: link [%d, %d] is a loopback (loopback never fails)", where, a, b)
				}
			}
		case KindHeal:
			// No payload.
		case KindDelayShift:
			model := ev.Model
			if model == "" {
				model, _, _ = s.delayBand(p)
			}
			switch model {
			case "uniform", "constant", "extremal", "center":
			default:
				return fmt.Errorf("%s: unknown delay model %q", where, model)
			}
			e := ev.Eps
			if model == "constant" {
				e = 0
			}
			if err := s.checkBand(fmt.Sprintf("events[%d] delay-shift", i), ev.Delta, e, p); err != nil {
				return err
			}
		case KindAdversarySwap:
			if ev.Strategy == "" {
				return fmt.Errorf("%s: missing strategy (name an adaptive strategy, or \"none\" to remove)", where)
			}
			if ev.Strategy != "none" {
				strat, err := faults.ByName(ev.Strategy)
				if err != nil {
					return fmt.Errorf("%s: %w", where, err)
				}
				if !strat.Adaptive() {
					return fmt.Errorf("%s: strategy %q is schedule-driven; only adaptive strategies (a network adversary) can be swapped in mid-run", where, ev.Strategy)
				}
			}
		default:
			return fmt.Errorf("%s: unknown event kind %q (crash, rejoin, partition, cut, heal, delay-shift, adversary-swap)", where, ev.Kind)
		}
	}
	return s.validateCrashRejoinOrder()
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

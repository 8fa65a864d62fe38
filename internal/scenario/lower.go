package scenario

import (
	"cmp"
	"fmt"
	"math"
	"strings"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/sim"
)

// compiled is a scenario lowered onto the experiment harness by lower: the
// assembled workload (whose Timeline carries the event script as
// sim.TimedActions) and the crash/rejoin wrappers the assertions
// interrogate after the run.
type compiled struct {
	w     exp.Workload
	gates map[sim.ProcID]*core.CrashRejoin
	// runtimeErrs collects failures surfaced inside timeline actions
	// (which have no error return); Run folds them into the report's
	// assertion failures. Lowered scenarios should never populate it.
	runtimeErrs []string
}

// delayModels is the substrate vocabulary, in the order the unknown-model
// error lists it: each name with its sim.DelayModel over a band (δ, ε).
// "constant" has no spread, so it drops ε and its Bounds report 0.
var delayModels = []struct {
	name string
	mk   func(d, e float64) sim.DelayModel
}{
	{"uniform", func(d, e float64) sim.DelayModel { return sim.UniformDelay{Delta: d, Eps: e} }},
	{"constant", func(d, _ float64) sim.DelayModel { return sim.ConstantDelay{Delta: d} }},
	{"extremal", func(d, e float64) sim.DelayModel { return sim.ExtremalDelay{Delta: d, Eps: e} }},
	{"center", func(d, e float64) sim.DelayModel { return sim.CenterDelay{Delta: d, Eps: e} }},
}

// delayModel builds the named model of delayModels over the band (d, e),
// or returns nil for an unknown name.
func delayModel(name string, d, e float64) sim.DelayModel {
	for _, m := range delayModels {
		if m.name == name {
			return m.mk(d, e)
		}
	}
	return nil
}

// lower checks the scenario end to end and lowers each part onto the
// experiment harness where it checks it: identity, topology, run length,
// the parameters (A1–A3 via analysis.Params.Validate), the substrate band,
// the fault placement, the event script (kinds, targets, the run horizon),
// then the crash/rejoin order and the assertions. Every path returns a
// descriptive error — a malformed scenario file must never panic the
// harness.
func lower(s *Scenario) (*compiled, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: missing name")
	}
	n, f := s.Topology.N, s.Topology.F
	if n < 1 {
		return nil, fmt.Errorf("scenario %s: topology.n = %d must be positive", s.Name, n)
	}
	if f < 0 {
		return nil, fmt.Errorf("scenario %s: topology.f = %d must be nonnegative", s.Name, f)
	}
	if s.Rounds < 0 || s.Rounds > maxRounds {
		return nil, fmt.Errorf("scenario %s: rounds = %d outside [0, %d]", s.Name, s.Rounds, maxRounds)
	}
	if s.WarmupRounds < 0 || s.WarmupRounds > s.rounds() {
		return nil, fmt.Errorf("scenario %s: warmup_rounds = %d outside [0, rounds=%d]", s.Name, s.WarmupRounds, s.rounds())
	}
	p := s.params()
	cfg := core.Config{Params: p}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: parameters: %w", s.Name, err)
	}

	model, delay := s.substrate(p)
	if delay == nil {
		names := make([]string, len(delayModels))
		for i, m := range delayModels {
			names[i] = m.name
		}
		return nil, fmt.Errorf("scenario %s: unknown delay model %q (%s)", s.Name, model, strings.Join(names, ", "))
	}
	if err := s.checkBand("delay", delay, p); err != nil {
		return nil, err
	}
	c := &compiled{
		w: exp.Workload{
			Cfg:             cfg,
			Delay:           delay,
			Rounds:          s.rounds(),
			WarmupRounds:    s.WarmupRounds,
			Seed:            s.seed(),
			CheckInvariants: s.Assertions.Invariants,
		},
		gates: map[sim.ProcID]*core.CrashRejoin{},
	}

	// The fault strategy resolves once, through the internal/faults
	// registry, into the workload's fault map (and, for an adaptive
	// strategy, the delivery-pipeline adversary).
	if fs := s.Topology.Faults; fs != nil {
		strat, err := faults.ByName(fs.Strategy)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: topology.faults: %w", s.Name, err)
		}
		seen := map[int]bool{}
		for _, m := range fs.Members {
			if m < 0 || m >= n {
				return nil, fmt.Errorf("scenario %s: topology.faults member %d out of range [0, %d)", s.Name, m, n)
			}
			if seen[m] {
				return nil, fmt.Errorf("scenario %s: topology.faults member %d listed twice", s.Name, m)
			}
			seen[m] = true
		}
		if len(fs.Members) >= n {
			return nil, fmt.Errorf("scenario %s: topology.faults claims all %d processes", s.Name, n)
		}
		c.w.Faults, c.w.Adversary = faults.Place(strat, cfg, fs.members(), cmp.Or(fs.Seed, s.seed()), 0)
	}

	// Each event lowers to one timeline action. Ties keep file order (the
	// timeline sort is stable), so a script may e.g. heal and re-partition
	// at the same instant with well-defined effect.
	horizon := s.horizon(p)
	for i, ev := range s.Events {
		where := fmt.Sprintf("scenario %s: events[%d] (%s)", s.Name, i, ev.Kind)
		if ev.At < 0 {
			return nil, fmt.Errorf("%s: at = %v is negative", where, ev.At)
		}
		if !(ev.At < horizon) {
			return nil, fmt.Errorf("%s: at = %v is past the run horizon ≈ %.3gs (%d rounds of P = %v) — it would never fire",
				where, ev.At, horizon, s.rounds(), p.P)
		}
		name := fmt.Sprintf("%s@%v", ev.Kind, ev.At)
		var do func(*sim.Engine)
		switch ev.Kind {
		case KindCrash, KindRejoin:
			if ev.Proc == nil {
				return nil, fmt.Errorf("%s: missing proc", where)
			}
			q := *ev.Proc
			if q < 0 || q >= n {
				return nil, fmt.Errorf("%s: proc %d out of range [0, %d)", where, q, n)
			}
			// The fault map holds the strategy's placement alone until the
			// gates join it below.
			id := sim.ProcID(q)
			if _, member := c.w.Faults[id]; member {
				return nil, fmt.Errorf("%s: proc %d is already a member of fault strategy %q", where, q, s.Topology.Faults.Strategy)
			}
			// One crash/rejoin wrapper per process. Its initial correction
			// is 0, as for the registry's crash-mid-run: a faulty-marked
			// process's exact initial offset is outside every invariant's
			// scope. Only timeline actions crash it.
			g := c.gates[id]
			if g == nil {
				g = core.NewCrashRejoin(cfg, 0, clock.Local(math.Inf(1)))
				c.gates[id] = g
			}
			do = func(*sim.Engine) { g.Crash() }
			if ev.Kind == KindRejoin {
				do = func(*sim.Engine) { g.Rejoin() }
			}
		case KindPartition:
			if len(ev.Groups) < 2 {
				return nil, fmt.Errorf("%s: needs at least 2 groups, got %d", where, len(ev.Groups))
			}
			seen := map[int]bool{}
			for _, g := range ev.Groups {
				if len(g) == 0 {
					return nil, fmt.Errorf("%s: empty group", where)
				}
				for _, q := range g {
					if q < 0 || q >= n {
						return nil, fmt.Errorf("%s: process %d out of range [0, %d)", where, q, n)
					}
					if seen[q] {
						return nil, fmt.Errorf("%s: process %d appears in two groups", where, q)
					}
					seen[q] = true
				}
			}
			do = func(e *sim.Engine) { e.SetChannel(partitionChannel(ev.Groups)) }
		case KindCut:
			if len(ev.Links) == 0 {
				return nil, fmt.Errorf("%s: no links", where)
			}
			for _, l := range ev.Links {
				if len(l) != 2 {
					return nil, fmt.Errorf("%s: link %v must be a [from, to] pair", where, l)
				}
				a, b := l[0], l[1]
				if a < 0 || a >= n || b < 0 || b >= n {
					return nil, fmt.Errorf("%s: link [%d, %d] out of range [0, %d)", where, a, b, n)
				}
				if a == b {
					return nil, fmt.Errorf("%s: link [%d, %d] is a loopback (loopback never fails)", where, a, b)
				}
			}
			do = func(e *sim.Engine) { e.SetChannel(cutChannel(ev.Links)) }
		case KindHeal:
			do = func(e *sim.Engine) { e.SetChannel(nil) }
		case KindDelayShift:
			// An empty model keeps the scenario's; the band does not
			// inherit.
			shift := cmp.Or(ev.Model, model)
			m := delayModel(shift, ev.Delta, ev.Eps)
			if m == nil {
				return nil, fmt.Errorf("%s: unknown delay model %q", where, shift)
			}
			if err := s.checkBand(fmt.Sprintf("events[%d] delay-shift", i), m, p); err != nil {
				return nil, err
			}
			do = func(e *sim.Engine) {
				if err := e.SetDelayModel(m); err != nil {
					c.runtimeErrs = append(c.runtimeErrs, fmt.Sprintf("%s: %v", name, err))
				}
			}
		case KindAdversarySwap:
			if ev.Strategy == "" {
				return nil, fmt.Errorf("%s: missing strategy (name an adaptive strategy, or \"none\" to remove)", where)
			}
			var adv sim.Adversary // "none" removes the current one
			if ev.Strategy != "none" {
				strat, err := faults.ByName(ev.Strategy)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", where, err)
				}
				if !strat.Adaptive() {
					return nil, fmt.Errorf("%s: strategy %q is schedule-driven; only adaptive strategies (a network adversary) can be swapped in mid-run", where, ev.Strategy)
				}
				// Only the network half is swappable mid-run; the
				// strategy's automata (if it wants members) cannot be
				// installed into a running system, so it is built
				// member-less.
				_, adv = strat.BuildAdaptive(cfg, nil, s.seed())
			}
			do = func(e *sim.Engine) { e.SetAdversary(adv) }
		default:
			return nil, fmt.Errorf("%s: unknown event kind %q (crash, rejoin, partition, cut, heal, delay-shift, adversary-swap)", where, ev.Kind)
		}
		c.w.Timeline = append(c.w.Timeline, sim.TimedAction{At: clock.Real(ev.At), Name: name, Do: do})
	}
	// A crashed process is faulty for the whole run — §9.1 counts it among
	// the f faulty ones.
	for q, g := range c.gates {
		if c.w.Faults == nil {
			c.w.Faults = map[sim.ProcID]func() sim.Process{}
		}
		c.w.Faults[q] = func() sim.Process { return g }
	}

	if err := s.validateCrashRejoinOrder(); err != nil {
		return nil, err
	}
	if err := s.validateAssertions(); err != nil {
		return nil, err
	}
	return c, nil
}

// members is the explicit member list as process ids, nil when none is
// given: faults.Place then resolves the strategy's conventional placement.
func (fs *FaultSpec) members() []sim.ProcID {
	if len(fs.Members) == 0 {
		return nil
	}
	ids := make([]sim.ProcID, len(fs.Members))
	for i, m := range fs.Members {
		ids[i] = sim.ProcID(m)
	}
	return ids
}

// partitionChannel cuts every link between different groups, both ways.
// Ids absent from every group keep all their links. Its action builds it
// when it fires, so lowering for Validate alone never pays for the map.
func partitionChannel(groups [][]int) sim.LossyLinks {
	ch := sim.NewLossyLinks()
	for i, gi := range groups {
		for j, gj := range groups {
			if i >= j {
				continue
			}
			for _, a := range gi {
				for _, b := range gj {
					ch.Dead[sim.Link{From: sim.ProcID(a), To: sim.ProcID(b)}] = true
					ch.Dead[sim.Link{From: sim.ProcID(b), To: sim.ProcID(a)}] = true
				}
			}
		}
	}
	return ch
}

// cutChannel cuts the listed [from, to] pairs, both ways.
func cutChannel(links [][]int) sim.LossyLinks {
	ch := sim.NewLossyLinks()
	for _, l := range links {
		ch = ch.BreakBothWays(sim.ProcID(l[0]), sim.ProcID(l[1]))
	}
	return ch
}

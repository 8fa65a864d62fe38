package scenario

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/sim"
)

// compiled is a scenario lowered onto the experiment harness: the resolved
// parameters, the assembled workload (whose Timeline carries the event
// script as sim.TimedActions), and the crash/rejoin wrappers the assertions
// interrogate after the run.
type compiled struct {
	s   *Scenario
	p   analysis.Params
	cfg core.Config
	w   exp.Workload

	gates map[sim.ProcID]*core.CrashRejoin
	// runtimeErrs collects failures surfaced inside timeline actions
	// (which have no error return); Run folds them into the report's
	// assertion failures. Validated scenarios should never populate it.
	runtimeErrs []string
}

// buildDelay constructs the substrate for a resolved (model, δ, ε) band.
func buildDelay(model string, d, e float64) sim.DelayModel {
	switch model {
	case "constant":
		return sim.ConstantDelay{Delta: d}
	case "extremal":
		return sim.ExtremalDelay{Delta: d, Eps: e}
	case "center":
		return sim.CenterDelay{Delta: d, Eps: e}
	default: // "uniform" — the validated default
		return sim.UniformDelay{Delta: d, Eps: e}
	}
}

// compile lowers a validated scenario. It must be called after Validate:
// it resolves registry names and process ids without re-checking them.
func compile(s *Scenario) (*compiled, error) {
	p := s.params()
	c := &compiled{
		s:     s,
		p:     p,
		cfg:   core.Config{Params: p},
		gates: map[sim.ProcID]*core.CrashRejoin{},
	}
	model, d, e := s.delayBand(p)
	c.w = exp.Workload{
		Cfg:             c.cfg,
		Delay:           buildDelay(model, d, e),
		Rounds:          s.rounds(),
		WarmupRounds:    s.WarmupRounds,
		Seed:            s.seed(),
		CheckInvariants: s.Assertions.Invariants,
	}
	if err := c.compileFaults(); err != nil {
		return nil, err
	}
	if err := c.compileEvents(); err != nil {
		return nil, err
	}
	return c, nil
}

// compileFaults renders the topology's fault assignment through the
// internal/faults registry into the workload's fault map (and, for adaptive
// strategies, the delivery-pipeline adversary).
func (c *compiled) compileFaults() error {
	fs := c.s.Topology.Faults
	if fs == nil {
		return nil
	}
	strat, err := faults.ByName(fs.Strategy)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", c.s.Name, err)
	}
	seed := fs.Seed
	if seed == 0 {
		seed = c.s.seed()
	}
	c.w.Faults, c.w.Adversary = faults.Place(strat, c.cfg, fs.members(), seed, 0)
	return nil
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

// compileEvents lowers the script onto the engine timeline. Ties keep file
// order (the timeline sort is stable), so a script may e.g. heal and
// re-partition at the same instant with well-defined effect.
func (c *compiled) compileEvents() error {
	for i, ev := range c.s.Events {
		at := clock.Real(ev.At)
		name := fmt.Sprintf("%s@%v", ev.Kind, ev.At)
		switch ev.Kind {
		case KindCrash:
			g := c.gateFor(sim.ProcID(*ev.Proc))
			c.addAction(at, name, func(*sim.Engine) { g.Crash() })
		case KindRejoin:
			g := c.gateFor(sim.ProcID(*ev.Proc))
			c.addAction(at, name, func(*sim.Engine) { g.Rejoin() })
		case KindPartition:
			ch := partitionChannel(ev.Groups)
			c.addAction(at, name, func(e *sim.Engine) { e.SetChannel(ch) })
		case KindCut:
			ch := cutChannel(ev.Links)
			c.addAction(at, name, func(e *sim.Engine) { e.SetChannel(ch) })
		case KindHeal:
			c.addAction(at, name, func(e *sim.Engine) { e.SetChannel(nil) })
		case KindDelayShift:
			model := ev.Model
			if model == "" {
				model, _, _ = c.s.delayBand(c.p)
			}
			eps := ev.Eps
			if model == "constant" {
				eps = 0
			}
			m := buildDelay(model, ev.Delta, eps)
			c.addAction(at, name, func(e *sim.Engine) {
				if err := e.SetDelayModel(m); err != nil {
					c.runtimeErrs = append(c.runtimeErrs, fmt.Sprintf("%s: %v", name, err))
				}
			})
		case KindAdversarySwap:
			if ev.Strategy == "none" {
				c.addAction(at, name, func(e *sim.Engine) { e.SetAdversary(nil) })
				break
			}
			strat, err := faults.ByName(ev.Strategy)
			if err != nil {
				return fmt.Errorf("scenario %s: events[%d]: %w", c.s.Name, i, err)
			}
			// Only the network half is swappable mid-run; the strategy's
			// automata (if it wants members) cannot be installed into a
			// running system, so it is built member-less.
			_, adv := strat.BuildAdaptive(c.cfg, nil, c.s.seed())
			c.addAction(at, name, func(e *sim.Engine) { e.SetAdversary(adv) })
		default:
			return fmt.Errorf("scenario %s: events[%d]: unknown kind %q", c.s.Name, i, ev.Kind)
		}
	}
	return nil
}

func (c *compiled) addAction(at clock.Real, name string, do func(*sim.Engine)) {
	c.w.Timeline = append(c.w.Timeline, sim.TimedAction{At: at, Name: name, Do: do})
}

// gateFor returns the crash/rejoin wrapper for p, installing it into the
// fault map on first use (a crashed process is faulty for the whole run —
// §9.1 counts it among the f faulty ones). Its initial correction is 0, as
// for the registry's crash-mid-run: a faulty-marked process's exact initial
// offset is outside every invariant's scope. Only timeline actions crash it.
func (c *compiled) gateFor(p sim.ProcID) *core.CrashRejoin {
	if g, ok := c.gates[p]; ok {
		return g
	}
	g := core.NewCrashRejoin(c.cfg, 0, clock.Local(math.Inf(1)))
	c.gates[p] = g
	if c.w.Faults == nil {
		c.w.Faults = map[sim.ProcID]func() sim.Process{}
	}
	c.w.Faults[p] = func() sim.Process { return g }
	return g
}

// partitionChannel cuts every link between different groups, both ways.
// Ids absent from every group keep all their links.
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

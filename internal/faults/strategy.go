package faults

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sim"
)

// Strategy is a named, pluggable Byzantine behavior: given the algorithm
// configuration, the faulty member ids, and a seed, it builds one automaton
// per member. Members may share state (colluding cliques do), which is why
// the whole group is built in one call rather than per process.
//
// The registry below is the adversary space the conformance harness
// (experiment E17) sweeps: every registered strategy must be tolerated by
// the algorithm at f < n/3, per the paper's central claim that the bound
// holds against *any* Byzantine behavior.
type Strategy struct {
	Name string
	// Desc is a one-line description for docs and tables.
	Desc string
	// Build returns one faulty automaton per member. Defaults inside the
	// built automata are derived from cfg so strategies scale across the
	// (n, f) grid; seed parameterizes randomized strategies, and pull, where
	// a strategy reads it, is its timing offset (0: the documented default).
	// Nil for adaptive strategies, which use BuildAdaptive instead.
	Build func(cfg core.Config, members []sim.ProcID, seed int64, pull float64) []sim.Process
	// BuildAdaptive, non-nil for adaptive strategies, builds the faulty
	// automata (one per member; members may be empty) together with the
	// network-level adversary installed on the engine's send path —
	// one call, so automata and adversary can share observed state. Exactly
	// one of Build and BuildAdaptive is set. Adaptive strategies react to
	// the live execution through the sim.AdversaryView and hooks; their
	// retiming is clamped to [δ−ε, δ+ε] by the engine, so A1–A3 hold by
	// construction and the f < n/3 theorems still apply whenever the
	// member count respects A2.
	BuildAdaptive func(cfg core.Config, members []sim.ProcID, seed int64) ([]sim.Process, sim.Adversary)
	// WantsMembers reports whether an adaptive strategy attacks through
	// faulty automata too (its conventional placement is TopIDs(f, n)) or
	// purely through delivery retiming (no members, leaving every process
	// nonfaulty). Meaningful only when BuildAdaptive is set.
	WantsMembers bool
}

// Adaptive reports whether the strategy reacts to the live execution
// through the engine's send path rather than committing to
// a schedule up front. The conformance matrix (E17) sweeps the
// schedule-driven strategies; the lower-bound experiment (E18) drives the
// adaptive ones.
func (s Strategy) Adaptive() bool { return s.BuildAdaptive != nil }

var (
	stratMu    sync.Mutex
	strategies = map[string]Strategy{}
)

// Register adds a strategy to the conformance registry. Duplicate names are
// a programmer error.
func Register(s Strategy) {
	stratMu.Lock()
	defer stratMu.Unlock()
	if s.Name == "" || (s.Build == nil) == (s.BuildAdaptive == nil) {
		panic("faults: Register: strategy needs a name and exactly one of Build / BuildAdaptive")
	}
	if _, dup := strategies[s.Name]; dup {
		panic("faults: duplicate strategy " + s.Name)
	}
	strategies[s.Name] = s
}

// ScheduleDriven returns the registered non-adaptive strategies sorted by
// name — the adversary space the E17 conformance matrix sweeps (adaptive
// strategies are exercised by the lower-bound experiment E18 instead, so
// registering one does not disturb E17's pinned tables).
func ScheduleDriven() []Strategy {
	all := Strategies()
	out := all[:0]
	for _, s := range all {
		if !s.Adaptive() {
			out = append(out, s)
		}
	}
	return out
}

// Strategies returns every registered strategy sorted by name.
func Strategies() []Strategy {
	stratMu.Lock()
	defer stratMu.Unlock()
	out := make([]Strategy, 0, len(strategies))
	for _, s := range strategies {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName looks up one strategy.
func ByName(name string) (Strategy, error) {
	stratMu.Lock()
	defer stratMu.Unlock()
	s, ok := strategies[name]
	if !ok {
		return Strategy{}, fmt.Errorf("faults: unknown strategy %q", name)
	}
	return s, nil
}

// TopIDs returns the conventional fault placement used throughout the
// experiments: the top `count` ids of an n-process system.
func TopIDs(count, n int) []sim.ProcID {
	ids := make([]sim.ProcID, count)
	for i := range ids {
		ids[i] = sim.ProcID(n - 1 - i)
	}
	return ids
}

// Members resolves a placement: members itself, or for nil the strategy's
// conventional one — the top f ids (TopIDs), or none for a pure retimer
// such as skewmax, which leaves every process nonfaulty.
func (s Strategy) Members(cfg core.Config, members []sim.ProcID) []sim.ProcID {
	if members == nil && (!s.Adaptive() || s.WantsMembers) {
		return TopIDs(cfg.F, cfg.N)
	}
	return members
}

// Place is the one way a strategy becomes faulty processes: it builds the
// automata for the resolved members (see Members) in one call, so members
// may share state, and renders them into the harness's shape — the map goes
// to Workload.Faults and the adversary, nil for a schedule-driven strategy,
// to Workload.Adversary. pull is the timing offset; 0 keeps each strategy's
// default, and only two-faced and stale-replay read it. Both halves are one
// execution's fault set: the instances are stateful, so place afresh per
// run rather than reusing them across engines.
func Place(s Strategy, cfg core.Config, members []sim.ProcID, seed int64, pull float64) (map[sim.ProcID]func() sim.Process, sim.Adversary) {
	members = s.Members(cfg, members)
	if !s.Adaptive() {
		return MixProcs(members, s.Build(cfg, members, seed, pull)), nil
	}
	procs, adv := s.BuildAdaptive(cfg, members, seed)
	if adv == nil {
		panic("faults: adaptive strategy " + s.Name + " built no adversary")
	}
	return MixProcs(members, procs), adv
}

// MixProcs is Place for pre-built automata (e.g. a clique constructed
// directly with custom tuning): member ids are paired with processes
// positionally. The same single-use caveat as Place applies.
func MixProcs(members []sim.ProcID, procs []sim.Process) map[sim.ProcID]func() sim.Process {
	if len(procs) != len(members) {
		panic(fmt.Sprintf("faults: %d automata for %d members", len(procs), len(members)))
	}
	mix := make(map[sim.ProcID]func() sim.Process, len(members))
	for i, id := range members {
		p := procs[i]
		mix[id] = func() sim.Process { return p }
	}
	return mix
}

// perMemberSeed spreads one strategy seed into well-separated member seeds
// (plain splitmix64 increments; the streams themselves re-mix every draw).
func perMemberSeed(seed int64, i int) int64 {
	return seed + int64(i+1)*-0x61c8864680b583eb // golden-ratio increment
}

// each adapts a per-member constructor to Strategy.Build: member i of the
// group is mk(cfg, i, seed, pull).
func each(mk func(cfg core.Config, i int, seed int64, pull float64) sim.Process) func(core.Config, []sim.ProcID, int64, float64) []sim.Process {
	return func(cfg core.Config, members []sim.ProcID, seed int64, pull float64) []sim.Process {
		out := make([]sim.Process, len(members))
		for i := range out {
			out[i] = mk(cfg, i, seed, pull)
		}
		return out
	}
}

func init() {
	Register(Strategy{
		Name:  "silent",
		Desc:  "never sends — the stale-entry case of Lemma 6",
		Build: each(func(core.Config, int, int64, float64) sim.Process { return Silent{} }),
	})
	Register(Strategy{
		Name: "crash-mid-run",
		Desc: "honest until its physical clock reaches round 5, then dead",
		Build: each(func(cfg core.Config, _ int, _ int64, _ float64) sim.Process {
			return core.NewCrashRejoin(cfg, 0, clock.Local(cfg.T0+float64(5*cfg.P)))
		}),
	})
	Register(Strategy{
		Name: "two-faced",
		Desc: "delivers each round early to half the recipients, late to the rest",
		Build: each(func(cfg core.Config, _ int, _ int64, pull float64) sim.Process {
			pull = orDefault(pull, cfg.Beta-cfg.Eps)
			return &TwoFaced{Cfg: cfg, Lead: pull, Lag: pull}
		}),
	})
	Register(Strategy{
		Name: "stale-replay",
		Desc: "replays round 0's mark late every round — a stuck clock",
		Build: each(func(cfg core.Config, _ int, _ int64, pull float64) sim.Process {
			return &StaleReplay{Cfg: cfg, Offset: orDefault(pull, cfg.Beta-cfg.Eps)}
		}),
	})
	Register(Strategy{
		Name: "noise",
		Desc: "floods random bogus marks at random times — a babbler",
		Build: each(func(cfg core.Config, _ int, _ int64, _ float64) sim.Process {
			return &Noise{Cfg: cfg, Burst: 3}
		}),
	})
	Register(Strategy{
		Name: "clique",
		Desc: "colluders share one per-round plan pulling a persistent split apart",
		Build: func(cfg core.Config, members []sim.ProcID, seed int64, _ float64) []sim.Process {
			return NewClique(cfg, len(members), seed, CliqueTuning{})
		},
	})
	Register(Strategy{
		Name:  "edge-rider",
		Desc:  "pins every arrival to an edge of the recipient's window (δ±ε riding)",
		Build: each(func(cfg core.Config, _ int, _ int64, _ float64) sim.Process { return &EdgeRider{Cfg: cfg} }),
	})
	Register(Strategy{
		Name:  "drift-max",
		Desc:  "virtual clock drifting at 200ρ, walking out of every window",
		Build: each(func(cfg core.Config, _ int, _ int64, _ float64) sim.Process { return &DriftMax{Cfg: cfg} }),
	})
	Register(Strategy{
		Name: "flaky-rejoin",
		Desc: "crash/recover loop replaying stale marks at each rejoin",
		Build: each(func(cfg core.Config, i int, _ int64, _ float64) sim.Process {
			// Stagger duty cycles so members crash out of phase.
			return &FlakyRejoin{Cfg: cfg, AliveRounds: 2 + i%2, DeadRounds: 2}
		}),
	})
	Register(Strategy{
		Name: "random-timing",
		Desc: "per-recipient send offsets drawn from a seeded sim.RNG stream",
		Build: each(func(cfg core.Config, i int, seed int64, _ float64) sim.Process {
			return NewRandomTiming(cfg, perMemberSeed(seed, i), cfg.Beta+cfg.Eps, 0)
		}),
	})
}

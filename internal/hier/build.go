package hier

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/sim"
)

// System is an assembled two-tier instance, ready to run as an
// exp.Workload's Hier: physical clocks, A4-satisfying initial corrections and
// START times, and one Member automaton per process. The run substitutes its
// faulty automata into Procs, so a System is single-use.
type System struct {
	Cfg      Config
	Clocks   []clock.Clock
	Corrs    []clock.Local
	Starts   []clock.Real
	Procs    []sim.Process
	MaxStart clock.Real

	wire *wire // the members' payloads, interned by SimConfig
}

// Build validates cfg and assembles the system. Initial corrections spread
// the initial logical clocks evenly over a real-time width chosen to satisfy
// both tiers' A4 at once: the global spread stays within β_out, and — since
// clusters are contiguous id ranges — the induced within-cluster spread
// (width·(c−1)/(n−1)) stays within β_in.
func Build(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("hier: %w", err)
	}
	n := cfg.N
	drift := clock.ConstantDrift{RhoBound: cfg.Rho}
	clocks := make([]clock.Clock, n)
	for i := range clocks {
		clocks[i] = drift.Build(i, n)
	}

	width := 0.9 * cfg.OuterBeta
	if n > 1 && cfg.ClusterSize > 1 {
		if inner := width * float64(cfg.ClusterSize-1) / float64(n-1); inner > 0.9*cfg.InnerBeta {
			width *= 0.9 * cfg.InnerBeta / inner
		}
	}
	corrs := make([]clock.Local, n)
	starts := make([]clock.Real, n)
	procs := make([]sim.Process, n)
	maxStart := clock.Real(0)
	w := &wire{}
	for i := 0; i < n; i++ {
		var spread clock.Real
		if n > 1 {
			spread = clock.Real(width) * clock.Real(i) / clock.Real(n-1)
		}
		corrs[i] = clock.Local(cfg.T0) - clocks[i].At(spread)
		starts[i] = clocks[i].Inv(clock.Local(cfg.T0) - corrs[i])
		procs[i] = newMember(cfg, sim.ProcID(i), corrs[i], w)
		if starts[i] > maxStart {
			maxStart = starts[i]
		}
	}
	return &System{
		Cfg: cfg, Clocks: clocks, Corrs: corrs, Starts: starts,
		Procs: procs, MaxStart: maxStart, wire: w,
	}, nil
}

// ShiftCluster moves cluster j's initial frame by offset — violating the
// outer tier's A4 on purpose, for partition experiments — rebuilding its
// members on the shifted corrections. Call before the run.
func (s *System) ShiftCluster(j int, offset clock.Local) {
	lo, hi := s.Cfg.ClusterBounds(j)
	for id := lo; id < hi; id++ {
		s.Corrs[id] += offset
		s.Starts[id] = s.Clocks[id].Inv(clock.Local(s.Cfg.T0) - s.Corrs[id])
		s.Procs[id] = newMember(s.Cfg, id, s.Corrs[id], s.wire)
		s.MaxStart = max(s.MaxStart, s.Starts[id])
	}
}

// MinRound returns the fewest inner rounds any Member of the system has
// completed (faulty substitutes are not Members and do not count); -1 if
// there is none.
func (s *System) MinRound() int {
	rounds := -1
	for _, p := range s.Procs {
		if m, ok := p.(*Member); ok && (rounds < 0 || m.Round() < rounds) {
			rounds = m.Round()
		}
	}
	return rounds
}

// SimConfig returns an engine configuration for running the system `rounds`
// maintenance rounds: the clustered two-band network, a queue hint sized to
// the hierarchy's per-round copy count (not the flat n²), and a step budget
// with the same slack factor and floor the flat experiments use: the faulty
// automata a run substitutes may send a flat mesh's traffic, which the
// per-round count leaves out. It also interns the members' payloads for
// that many rounds, so it is called before the run.
func (s *System) SimConfig(rounds int, seed int64) sim.Config {
	s.wire.intern(s.Cfg, rounds)
	perRound := int(s.Cfg.MsgsPerRound())
	return sim.Config{
		Procs:     s.Procs,
		Clocks:    s.Clocks,
		StartAt:   s.Starts,
		Delay:     NewClusteredDelay(s.Cfg),
		Seed:      seed,
		EventHint: perRound + 4*s.Cfg.N + 64,
		MaxSteps:  max(sim.DefaultMaxSteps, (rounds+4)*(perRound+4*s.Cfg.N)),
	}
}

// Horizon returns a real-time end that lets every process finish `rounds`
// inner rounds plus the trailing outer window and discipline delivery.
func (s *System) Horizon(rounds int) clock.Real {
	c := s.Cfg
	return s.MaxStart + clock.Real(
		float64(float64(rounds)*c.P*(1+float64(2*c.Rho)))+float64(2*c.OuterParams().Window())+c.OuterDelta+1)
}

// Warmup returns the real time after which steady-state invariants are
// expected to hold: half the rounds, matching the flat experiments'
// convention, which covers the inner convergence and at least one full
// outer round of discipline.
func (s *System) Warmup(rounds int) clock.Real {
	return s.MaxStart + clock.Real(float64(rounds/2)*s.Cfg.P)
}

// Package exp contains the experiment harness: workload assembly per
// topology and the one execute step every run goes through (Run, RunStartup,
// RunLifecycle), table rendering, and one file per experiment
// (e01_halving.go …) reproducing every measurable claim of the paper. The
// experiment ↔ paper mapping is each Experiment's PaperRef; cmd/experiments
// -list prints it.
package exp

import (
	"fmt"
	"runtime"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Workload assembles one simulation run: the algorithm parameters, the
// substrate (drift schedule, delay model, channel), the fault mix, and how
// long to run. Zero fields get sensible defaults (see Run).
type Workload struct {
	Cfg core.Config

	// Hier, when non-nil, is the topology: the built two-tier system runs in
	// place of the flat mesh. It brings its own clocks, corrections, automata
	// and two-band delay model, so the fields that describe the flat mesh —
	// Cfg, Drift, Delay, InitialSpread, MakeProc, StartOverride, WarmupRounds
	// and CheckInvariants — must be left zero (Run rejects them rather than
	// drop them silently); everything else applies to either topology. A
	// System is single-use, like Faults.
	Hier *hier.System

	// Drift defaults to ConstantDrift spanning the full ρ-band.
	Drift clock.DriftSchedule
	// Delay defaults to UniformDelay{δ, ε}.
	Delay sim.DelayModel
	// Channel defaults to the reliable full mesh.
	Channel sim.Channel

	// InitialSpread is the real-time width over which the initial logical
	// clocks are spread (assumption A4 requires ≤ β). Defaults to 0.9β.
	InitialSpread float64

	// MakeProc builds the nonfaulty automaton for a process; defaults to
	// the paper's maintenance algorithm. Baseline experiments override it.
	MakeProc func(id sim.ProcID, initialCorr clock.Local) sim.Process

	// Faults maps process ids to faulty automaton builders; these
	// processes are marked faulty for all metrics.
	Faults map[sim.ProcID]func() sim.Process

	// Adversary, when non-nil, is installed on the engine's delivery
	// pipeline: an adaptive message-timing adversary with an omniscient
	// read view and a write capability clamped to [δ−ε, δ+ε] (see
	// sim.Adversary; faults.Place builds one together with its
	// faulty automata). Single-use, like Faults: build a fresh one per run.
	Adversary sim.Adversary

	// StartOverride replaces the computed START delivery time for specific
	// processes (e.g. a reintegrating process waking late).
	StartOverride map[sim.ProcID]clock.Real

	// Timeline schedules state mutations (channel swaps, delay-band shifts,
	// adversary changes) at real times, interleaved deterministically with
	// deliveries; see sim.Config.Timeline. The scenario harness
	// (internal/scenario) lowers its event scripts into this; Run refuses an
	// action after the run horizon, which would never fire.
	Timeline []sim.TimedAction

	// Rounds is how many rounds to simulate (default 20).
	Rounds int
	// Seed drives delay sampling (default 1).
	Seed int64
	// SkewBucket, when positive, collects a per-bucket max-skew series.
	SkewBucket clock.Real
	// WarmupRounds sets the steady-state boundary for MaxAfterWarmup
	// (default: half of Rounds).
	WarmupRounds int
	// Observers are registered with the engine after the topology's
	// standard recorders (e.g. a sim.Tracer).
	Observers []sim.Observer

	// CheckInvariants attaches the paper's theorem predicates
	// (internal/invariant: agreement, validity, monotonicity, adjustment
	// bound) as engine observers; the verdicts land in Result.Invariants.
	CheckInvariants bool

	// Shards is sim.Config.Shards: k ≥ 1 drains in lookahead windows over k
	// partitions; 0 drains in windows over one partition whenever the
	// workload composes with the window (sim.Windowable: no Adversary, no
	// Timeline, a stateless Channel, a positive lookahead δ−ε and no
	// per-delivery observer such as sim.Tracer), and time-major otherwise;
	// Auto drains a flat mesh that composes with the window over
	// AutoShards(n, GOMAXPROCS) partitions, and is 0 otherwise. A sweep
	// keeps 0: its runner already has every core busy.
	// Every engine runs one execution sampled at the same instants, so the
	// Result reads the same. With k ≥ 1, a feature the windowed engine
	// rejects fails Run with a clear error: an Adversary, Timeline or
	// stateful Channel at engine construction, a per-delivery observer at
	// registration — the standard recorders and the invariant suite work
	// unchanged.
	Shards int
}

// withDefaults fills the defaults both topologies and RunLifecycle share.
func (w Workload) withDefaults() Workload {
	if w.Drift == nil {
		w.Drift = clock.ConstantDrift{RhoBound: w.Cfg.Rho}
	}
	if w.Delay == nil {
		w.Delay = sim.UniformDelay{Delta: w.Cfg.Delta, Eps: w.Cfg.Eps}
	}
	if w.Rounds <= 0 {
		w.Rounds = 20
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
	return w
}

// Result bundles the engine and the recorders after a run.
type Result struct {
	// Engine is the engine that ran. Its counters (Steps, MessagesSent,
	// MessagesLost, Windows, …) total every partition of a windowed one, and
	// its processes (Process, LocalTime, NonfaultyIDs, Faulty) read the same
	// either way.
	*sim.Engine
	// Skew is attached by every topology; Rounds and Validity by the flat
	// mesh only.
	Skew     *metrics.SkewRecorder
	Rounds   *metrics.RoundRecorder
	Validity *metrics.ValidityRecorder
	Horizon  clock.Real
	// Invariants is non-nil when the workload set CheckInvariants.
	Invariants *invariant.Suite
	// HierAgreement is the two-tier topology's composed-agreement checker
	// (nil for the flat mesh).
	HierAgreement *invariant.HierAgreement
}

// assembly is a system ready to run: what a topology (or the §9.2 entry
// points) hands the execute step.
type assembly struct {
	// cfg is complete but for the faulty automata, which execute substitutes
	// into cfg.Procs.
	cfg    sim.Config
	faults map[sim.ProcID]func() sim.Process
	// msgs is the run's interned round messages, which execute hands the
	// faulty automata that send them (nil: they box their own).
	msgs *core.RoundMsgs
	// observers are registered in order.
	observers []sim.Observer
	horizon   clock.Real
	// res holds the recorders among observers; execute adds the engine.
	res *Result
}

// roundMsgsUser is a faulty automaton that sends the run's round messages
// when handed the run's interned table (faults' timed-send strategies).
type roundMsgsUser interface{ UseRoundMsgs(*core.RoundMsgs) }

// execute is the run path, the one place an engine is built: refuse a
// timeline action the run would never reach (the engine fires exactly those
// at or before the horizon), substitute the faulty automata — handing the
// run's interned round messages to those that send them — and flag them,
// build the engine, register the observers, run to the horizon, package the
// Result.
func execute(a assembly) (*Result, error) {
	for _, act := range a.cfg.Timeline {
		if !(act.At <= a.horizon) {
			return nil, fmt.Errorf("exp: timeline action %q at t=%v is past the run horizon %v — it would never fire", act.Name, act.At, a.horizon)
		}
	}
	if len(a.faults) > 0 {
		a.cfg.Faulty = make([]bool, len(a.cfg.Procs))
		for i := range a.cfg.Procs {
			if mk, ok := a.faults[sim.ProcID(i)]; ok {
				p := mk()
				if u, ok := p.(roundMsgsUser); ok {
					u.UseRoundMsgs(a.msgs)
				}
				a.cfg.Procs[i], a.cfg.Faulty[i] = p, true
			}
		}
	}
	// Shards = 0 runs on one window partition whenever the windowed engine
	// composes with the workload (sim.Windowable): the same execution as the
	// time-major drain, faster. Auto runs there on AutoShards partitions,
	// the same execution again. What needs per-delivery order stays
	// time-major. An explicit Shards ≥ 1 is New's to check, and Observe's
	// for a per-delivery observer, each with its own error.
	if a.cfg.Shards == 0 || a.cfg.Shards == Auto {
		k := 0
		if sim.Windowable(a.cfg, a.observers...) == nil {
			k = 1
			if a.cfg.Shards == Auto {
				k = AutoShards(len(a.cfg.Procs), runtime.GOMAXPROCS(0))
			}
		}
		a.cfg.Shards = k
	}
	e, err := sim.New(a.cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	for _, o := range a.observers {
		if err := e.Observe(o); err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
	}
	if err := e.Run(a.horizon); err != nil {
		return nil, fmt.Errorf("exp: run: %w", err)
	}
	res := a.res
	res.Engine, res.Horizon = e, a.horizon
	return res, nil
}

// Auto is Workload.Shards's automatic shard count.
const Auto = -1

// autoMinN is n₀ of AutoShards: the processes a partition needs before a
// second one pays for its fork, join and cut work. It is read off the
// crossover table in BENCH_engine.json (cmd/benchjson -crossover): on its
// 2-core host k = 2 is level with k = 1 within noise up to n = 61 and
// faster beyond it from n = 101 on, so n₀ lies in (30, 50];
// TestAutoShardsMatchesCrossover holds the two together.
const autoMinN = 40

// autoMaxShards caps AutoShards at the largest k the crossover table shows
// winning. Its host has 2 cores, so no k above 2 was measured to pay for
// its workers there, and none is picked on a wider host either: every
// concurrent Run would add that many workers on a guess. A wider cap needs
// a table measured on a wider host, which TestAutoShardsMatchesCrossover
// then checks at that host's GOMAXPROCS.
const autoMaxShards = 2

// AutoShards is the shard count Auto picks for a flat mesh of n processes
// on procs cores: min(procs, n / n₀, autoMaxShards), at least 1.
func AutoShards(n, procs int) int { return max(1, min(procs, n/autoMinN, autoMaxShards)) }

// Run assembles the workload's topology and executes it, returning the
// recorders.
func Run(w Workload) (*Result, error) {
	a, err := w.assemble()
	if err != nil {
		return nil, err
	}
	return execute(a)
}

// assemble picks the topology's assembly.
func (w Workload) assemble() (assembly, error) {
	if w.Hier != nil {
		if w.Cfg.N != 0 || w.Drift != nil || w.Delay != nil || w.InitialSpread != 0 || w.MakeProc != nil ||
			w.StartOverride != nil || w.WarmupRounds != 0 || w.CheckInvariants {
			return assembly{}, fmt.Errorf("exp: a two-tier workload takes its clocks, automata, delay model and warm-up from Hier; Cfg, Drift, Delay, InitialSpread, MakeProc, StartOverride, WarmupRounds and CheckInvariants describe the flat mesh and must be left zero")
		}
		return w.withDefaults().assembleTwoTier(), nil
	}
	if w.Cfg.N == 0 {
		return assembly{}, fmt.Errorf("exp: workload has no processes")
	}
	return w.withDefaults().assembleFlat(), nil
}

// assembleFlat builds the paper's all-to-all mesh: A4-satisfying initial
// corrections, one automaton per nonfaulty process, the skew, round and
// validity recorders and, on request, the invariant suite.
func (w Workload) assembleFlat() assembly {
	cfg := w.Cfg
	n, rounds := cfg.N, w.Rounds
	spread := w.InitialSpread
	if spread == 0 {
		spread = 0.9 * cfg.Beta
	}
	clocks := clock.Clocks(w.Drift, w.Cfg.N)
	corrs := core.InitialCorrsWithinBeta(cfg, clocks, spread)
	starts := core.StartTimes(cfg, clocks, corrs)
	for id, at := range w.StartOverride {
		starts[id] = at
	}

	faulty := func(id sim.ProcID) bool {
		_, ok := w.Faults[id]
		return ok
	}
	var procs []sim.Process
	var msgs *core.RoundMsgs
	if w.MakeProc == nil {
		msgs = core.NewRoundMsgs(cfg, rounds)
		procs = core.NewProcs(cfg, corrs, msgs, faulty)
	} else {
		procs = make([]sim.Process, n)
		for i := range procs {
			if !faulty(sim.ProcID(i)) {
				procs[i] = w.MakeProc(sim.ProcID(i), corrs[i])
			}
		}
	}

	// tmin⁰ / tmax⁰ over nonfaulty processes, for validity bookkeeping.
	tmin0, tmax0 := starts[0], starts[0]
	first := true
	for i, s := range starts {
		if faulty(sim.ProcID(i)) {
			continue
		}
		if first {
			tmin0, tmax0, first = s, s, false
		}
		tmin0, tmax0 = min(tmin0, s), max(tmax0, s)
	}

	warmRounds := w.WarmupRounds
	if warmRounds <= 0 {
		warmRounds = rounds / 2
	}
	res := &Result{
		Skew: &metrics.SkewRecorder{
			Warmup: tmax0 + clock.Real(float64(warmRounds)*cfg.P),
			Bucket: w.SkewBucket,
		},
		Rounds:   metrics.NewDefaultRoundRecorder().Reserve(rounds + 2),
		Validity: metrics.NewValidityRecorder(cfg.Params, tmin0, tmax0),
	}
	observers := []sim.Observer{res.Skew, res.Rounds, res.Validity}
	if w.CheckInvariants {
		// The suite samples through the skew and validity recorders, so it
		// is registered in their place.
		res.Invariants = invariant.Over(cfg.Params, res.Skew, res.Validity)
		observers = append([]sim.Observer{res.Rounds}, res.Invariants.Observers()...)
	}
	return assembly{
		cfg: sim.Config{
			Procs:     procs,
			Clocks:    clocks,
			StartAt:   starts,
			Delay:     w.Delay,
			Channel:   w.Channel,
			Seed:      w.Seed,
			Adversary: w.Adversary,
			Timeline:  w.Timeline,
			// The runaway guard grows with the workload: ≈ rounds+2
			// all-to-all exchanges plus per-process timers, with slack.
			MaxSteps: max(sim.DefaultMaxSteps, (rounds+4)*(max(cfg.K, 1)*n*n+4*n)),
			Shards:   w.Shards,
		},
		faults:    w.Faults,
		msgs:      msgs,
		observers: append(observers, w.Observers...),
		horizon:   tmax0 + clock.Real(float64(float64(rounds)*cfg.P*(1+float64(2*cfg.Rho)))+float64(2*cfg.Window())+cfg.Delta+1),
		res:       res,
	}
}

// assembleTwoTier runs the built hierarchy on its own engine configuration
// (clustered two-band delays, queue hint and step budget sized to its
// traffic) under the composed-agreement checker and the skew recorder.
func (w Workload) assembleTwoTier() assembly {
	s := w.Hier
	cfg := s.SimConfig(w.Rounds, w.Seed)
	cfg.Channel, cfg.Adversary, cfg.Timeline, cfg.Shards = w.Channel, w.Adversary, w.Timeline, w.Shards
	if cfg.Shards == Auto {
		// Auto keeps a two-tier run on one partition: its lookahead is the
		// inner band's, so its windows are many and small, and at n = 529
		// (10 rounds, 2 cores) a second partition measured level within
		// noise, 30–32 ms against 32–33 ms, for 2 % more allocations and
		// 7 % more bytes.
		cfg.Shards = 0
	}
	// The checker samples through its skew recorder, the Result's.
	chk := invariant.NewHierAgreement(s.Cfg.GammaComposed(), s.Cfg.GammaInner(), s.Cfg.ClusterSize, s.Warmup(w.Rounds))
	chk.Skew.Bucket = w.SkewBucket
	res := &Result{HierAgreement: chk, Skew: chk.Skew}
	return assembly{
		cfg:       cfg,
		faults:    w.Faults,
		observers: append([]sim.Observer{chk}, w.Observers...),
		horizon:   s.Horizon(w.Rounds),
		res:       res,
	}
}

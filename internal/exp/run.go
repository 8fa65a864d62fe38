// Package exp contains the experiment harness: reusable workload assembly
// around the simulator (Run), table rendering, and one file per experiment
// (e01_halving.go …) reproducing every measurable claim of the paper. The
// experiment ↔ paper mapping is each Experiment's PaperRef; cmd/experiments
// -list prints it.
package exp

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Workload assembles one simulation run: the algorithm parameters, the
// substrate (drift schedule, delay model, channel), the fault mix, and how
// long to run. Zero fields get sensible defaults (see Run).
type Workload struct {
	Cfg core.Config

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
	// sim.Adversary; faults.MixAdaptive builds one together with its
	// faulty automata). Single-use, like Faults: build a fresh one per run.
	Adversary sim.Adversary

	// StartOverride replaces the computed START delivery time for specific
	// processes (e.g. a reintegrating process waking late).
	StartOverride map[sim.ProcID]clock.Real

	// Timeline schedules state mutations (channel swaps, delay-band shifts,
	// adversary changes) at real times, interleaved deterministically with
	// deliveries; see sim.Config.Timeline. The scenario harness
	// (internal/scenario) compiles its event scripts into this.
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
	// Observers are registered with the engine in addition to the standard
	// recorders (e.g. a sim.Tracer).
	Observers []sim.Observer

	// CheckInvariants attaches the paper's theorem predicates
	// (internal/invariant: agreement, validity, monotonicity, adjustment
	// bound) as engine observers; the verdicts land in Result.Invariants.
	CheckInvariants bool

	// Shards, when > 1, runs the workload on the sharded time-window engine
	// (sim.NewSharded) instead of the sequential one; the execution is
	// byte-identical for every shard count. Workload features sharded mode
	// rejects fail Run with a clear error: an Adversary or Timeline at
	// engine construction, and per-delivery observers (e.g. sim.Tracer) at
	// registration — the standard recorders and the invariant suite all
	// sample at window barriers and work unchanged.
	Shards int
}

// eventHint estimates the peak number of buffered events for a maintenance
// workload: each of the K exchanges per round keeps ≈ n² broadcast copies in
// flight at once plus a timer per process — under either broadcast mode —
// and with §9.3 staggering or rejoin schedules a previous exchange's
// stragglers can overlap the next. The hint pre-sizes the engine's queue
// stores so rounds never pay growth-doubling copies mid-run (see
// sim.Config.EventHint).
func (w Workload) eventHint() int {
	n := w.Cfg.N
	hint := sim.DefaultEventHint(broadcastMode(), n)
	if k := w.Cfg.K; k > 1 {
		hint += (k - 1) * n * n / 4
	}
	return hint
}

// Result bundles the engine and the recorders after a run.
type Result struct {
	// Engine is the sequential engine, nil when the workload ran sharded.
	Engine *sim.Engine
	// Sharded is the sharded engine, non-nil exactly when Workload.Shards
	// was > 1. Use the MessagesSent/MessagesLost/Steps accessors for
	// counters that must work either way.
	Sharded  *sim.ShardedEngine
	Skew     *metrics.SkewRecorder
	Rounds   *metrics.RoundRecorder
	Validity *metrics.ValidityRecorder
	Horizon  clock.Real
	// Invariants is non-nil when the workload set CheckInvariants.
	Invariants *invariant.Suite
}

// Steps returns the delivered-event count of whichever engine ran.
func (r *Result) Steps() int {
	if r.Sharded != nil {
		return r.Sharded.Steps()
	}
	return r.Engine.Steps()
}

// MessagesSent returns the ordinary-copy send count of whichever engine ran.
func (r *Result) MessagesSent() int64 {
	if r.Sharded != nil {
		return r.Sharded.MessagesSent()
	}
	return r.Engine.MessagesSent()
}

// MessagesLost returns the lossy-channel drop count of whichever engine ran.
func (r *Result) MessagesLost() int64 {
	if r.Sharded != nil {
		return r.Sharded.MessagesLost()
	}
	return r.Engine.MessagesLost()
}

// Run assembles and executes the workload, returning the recorders.
func Run(w Workload) (*Result, error) {
	cfg := w.Cfg
	n := cfg.N
	if n == 0 {
		return nil, fmt.Errorf("exp: workload has no processes")
	}
	drift := w.Drift
	if drift == nil {
		drift = clock.ConstantDrift{RhoBound: cfg.Rho}
	}
	delay := w.Delay
	if delay == nil {
		delay = sim.UniformDelay{Delta: cfg.Delta, Eps: cfg.Eps}
	}
	rounds := w.Rounds
	if rounds <= 0 {
		rounds = 20
	}
	spread := w.InitialSpread
	if spread == 0 {
		spread = 0.9 * cfg.Beta
	}
	makeProc := w.MakeProc
	if makeProc == nil {
		makeProc = func(_ sim.ProcID, corr clock.Local) sim.Process {
			return core.NewProc(cfg, corr)
		}
	}
	seed := w.Seed
	if seed == 0 {
		seed = 1
	}

	clocks := make([]clock.Clock, n)
	for i := range clocks {
		clocks[i] = drift.Build(i, n)
	}
	corrs := core.InitialCorrsWithinBeta(cfg, clocks, spread)
	starts := core.StartTimes(cfg, clocks, corrs)

	procs := make([]sim.Process, n)
	faulty := make([]bool, n)
	for i := range procs {
		if mk, ok := w.Faults[sim.ProcID(i)]; ok {
			procs[i] = mk()
			faulty[i] = true
			continue
		}
		procs[i] = makeProc(sim.ProcID(i), corrs[i])
	}
	for id, at := range w.StartOverride {
		starts[id] = at
	}

	scfg := sim.Config{
		Procs:     procs,
		Clocks:    clocks,
		StartAt:   starts,
		Delay:     delay,
		Channel:   w.Channel,
		Faulty:    faulty,
		Seed:      seed,
		Adversary: w.Adversary,
		Timeline:  w.Timeline,
		Broadcast: broadcastMode(),
		EventHint: w.eventHint(),
	}
	var eng *sim.Engine
	var se *sim.ShardedEngine
	var err error
	if w.Shards > 1 {
		// NewSharded rejects the features sharded mode cannot run
		// (adversary, timeline, stateful channels) with its own errors.
		se, err = sim.NewSharded(scfg, w.Shards)
	} else {
		eng, err = sim.New(scfg)
	}
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}

	// tmin⁰ / tmax⁰ over nonfaulty processes, for validity bookkeeping.
	tmin0, tmax0 := starts[0], starts[0]
	first := true
	for i, s := range starts {
		if faulty[i] {
			continue
		}
		if first {
			tmin0, tmax0, first = s, s, false
			continue
		}
		if s < tmin0 {
			tmin0 = s
		}
		if s > tmax0 {
			tmax0 = s
		}
	}

	warmRounds := w.WarmupRounds
	if warmRounds <= 0 {
		warmRounds = rounds / 2
	}
	horizon := tmax0 + clock.Real(float64(rounds)*cfg.P*(1+2*cfg.Rho)+2*cfg.Window()+cfg.Delta+1)

	skew := &metrics.SkewRecorder{
		Warmup: tmax0 + clock.Real(float64(warmRounds)*cfg.P),
		Bucket: w.SkewBucket,
	}
	rrec := metrics.NewDefaultRoundRecorder()
	a1, a2, a3 := cfg.Validity()
	vrec := &metrics.ValidityRecorder{
		Alpha1: a1, Alpha2: a2, Alpha3: a3,
		T0:    cfg.T0,
		TMin0: tmin0, TMax0: tmax0,
		From: tmax0,
	}
	observers := []sim.Observer{skew, rrec, vrec}
	var suite *invariant.Suite
	if w.CheckInvariants {
		suite = invariant.NewSuite(cfg.Params, tmin0, tmax0, skew.Warmup)
		observers = append(observers, suite.Observers()...)
	}
	observers = append(observers, w.Observers...)
	for _, o := range observers {
		if se != nil {
			// Sharded registration can fail: per-delivery observers have no
			// deterministic place in a parallel window drain.
			if err := se.Observe(o); err != nil {
				return nil, fmt.Errorf("exp: %w", err)
			}
			continue
		}
		eng.Observe(o)
	}

	if se != nil {
		if err := se.Run(horizon); err != nil {
			return nil, fmt.Errorf("exp: run: %w", err)
		}
		return &Result{Sharded: se, Skew: skew, Rounds: rrec, Validity: vrec, Horizon: horizon, Invariants: suite}, nil
	}
	if err := eng.Run(horizon); err != nil {
		return nil, fmt.Errorf("exp: run: %w", err)
	}
	return &Result{Engine: eng, Skew: skew, Rounds: rrec, Validity: vrec, Horizon: horizon, Invariants: suite}, nil
}

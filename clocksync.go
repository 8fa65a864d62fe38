// Package clocksync is a fault-tolerant clock synchronization library — a
// from-scratch Go reproduction of Welch & Lynch, "A New Fault-Tolerant
// Algorithm for Clock Synchronization" (PODC 1984; Information and
// Computation 77(1), 1988).
//
// It simulates a fully connected system of n processes with ρ-bounded
// drifting physical clocks and message delays in [δ−ε, δ+ε], of which up to
// f < n/3 may be Byzantine, and maintains the processes' logical clocks
// within a small constant γ of each other using the paper's fault-tolerant
// averaging function mid(reduce_f(·)).
//
// Quick start:
//
//	c, err := clocksync.New(7, 2)
//	if err != nil { ... }
//	report, err := c.Run(20)
//	fmt.Println(report)
//
// The package also exposes the paper's extensions: establishing
// synchronization from arbitrary clocks (RunStartup, §9.2), reintegrating a
// repaired process (WithRejoiner, §9.1), k exchanges per round and mean
// averaging (§7), and staggered broadcasts for collision-prone datagram
// networks (WithStagger, §9.3). Baseline algorithms from the paper's
// comparison section and the full experiment suite live under internal/ and
// cmd/experiments.
//
// Large systems are first-class: each round's all-to-all broadcast goes
// through the engine's batched fan-out, which a default run drains in
// lookahead windows — every broadcast one 80-byte row from which its copies'
// delivery times are redrawn, each process's due copies gathered when its
// turn in the window comes and received as unsorted batches between its own
// timers — so sweeps at n = 101 run routinely. A flat run from n = 80 up
// spreads its windows over the cores by default (WithShards documents the
// Auto count). See the README's engine section and BenchmarkLargeN.
package clocksync

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/hier"
	"repro/internal/sim"
)

// Cluster is a configured system of processes ready to simulate.
type Cluster struct {
	cfg    core.Config
	opts   options
	places []placement
	hier   *hier.Config // non-nil for TopologyTwoTier
}

// New configures a cluster of n processes tolerating f Byzantine faults
// (n ≥ 3f+1). Defaults are the experiments' regime (analysis.Default):
// ρ=1e−5, δ=10ms, ε=1ms, β=5.5ms, P=1s; override with Options. Parameters
// are validated against every §5.2 constraint of the paper.
func New(n, f int, opts ...Option) (*Cluster, error) {
	o := resolve(opts)
	if err := o.reject(o.shardedReason, " or WithShards"); err != nil {
		return nil, err
	}
	if o.topology == TopologyTwoTier {
		return newTwoTier(n, f, o)
	}
	params := o.params(n, f)
	if o.deriveBeta {
		sp, err := analysis.Suggest(n, f, o.rho, o.delta, o.eps, o.roundLength)
		if err != nil {
			return nil, fmt.Errorf("clocksync: %w", err)
		}
		params.Beta = sp.Beta
	}
	cfg := core.Config{
		Params:   params,
		Averager: o.averager,
		K:        o.k,
		Stagger:  o.stagger,
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("clocksync: %w", err)
	}
	places, err := o.place(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg, opts: o, places: places}, nil
}

// placement is one fault-slot owner New resolved: a registry strategy on
// members (nil: its conventional placement) at a pull (0: its default).
type placement struct {
	s       faults.Strategy
	members []sim.ProcID
	pull    float64
}

// place resolves WithAdversary, WithFault and WithRejoiner into one per-id
// table — each claims the ids it places — and returns the strategies Run
// builds (Run builds the rejoiner itself). An id outside [0, n), an id
// claimed twice or more than f claimed ids is a named error, not a panic at
// Run, a silently dropped fault or an execution A2 does not cover.
func (o *options) place(cfg core.Config) ([]placement, error) {
	type claim struct {
		id int
		by string
	}
	var claims []claim
	var places []placement
	if o.adversary != "" {
		s, err := faults.ByName(o.adversary)
		if err != nil {
			return nil, fmt.Errorf("clocksync: %w", err)
		}
		for _, id := range s.Members(cfg, nil) {
			claims = append(claims, claim{int(id), "WithAdversary"})
		}
		places = append(places, placement{s: s})
	}
	ids := make([]int, 0, len(o.faults))
	for id := range o.faults {
		ids = append(ids, id)
	}
	slices.Sort(ids) // claims, and so errors, in id order
	for _, id := range ids {
		kind := o.faults[id]
		if int(kind) >= len(faultKinds) || faultKinds[kind].strategy == "" {
			return nil, fmt.Errorf("clocksync: WithFault(%d, %d): unknown FaultKind", id, kind)
		}
		s, err := faults.ByName(faultKinds[kind].strategy)
		if err != nil {
			return nil, fmt.Errorf("clocksync: %w", err)
		}
		claims = append(claims, claim{id, "WithFault"})
		places = append(places, placement{s: s, members: []sim.ProcID{sim.ProcID(id)}, pull: faultKinds[kind].pullEps * cfg.Eps})
	}
	if o.rejoin != nil {
		claims = append(claims, claim{o.rejoin.id, "WithRejoiner"})
	}
	for i, c := range claims {
		if c.id < 0 || c.id >= cfg.N {
			return nil, fmt.Errorf("clocksync: %s places process %d outside [0,%d)", c.by, c.id, cfg.N)
		}
		for _, prev := range claims[:i] {
			if prev.id == c.id {
				return nil, fmt.Errorf("clocksync: %s places process %d, which %s already placed", c.by, c.id, prev.by)
			}
		}
	}
	if len(claims) > cfg.F {
		return nil, fmt.Errorf("clocksync: %d processes placed faulty but f = %d", len(claims), cfg.F)
	}
	return places, nil
}

// newTwoTier configures a two-tier hierarchical Cluster (WithTopology /
// WithClusters); see optionRules for the options it rejects.
func newTwoTier(n, f int, o options) (*Cluster, error) {
	if err := o.reject(twoTierReason, " or WithTopology"); err != nil {
		return nil, err
	}
	c := o.clusterSize
	if c <= 0 {
		// c ≈ √n minimizes the n·c + (n/c)² traffic terms.
		c = int(math.Round(math.Sqrt(float64(n))))
		if c < 1 {
			c = 1
		}
	}
	if c > n {
		return nil, fmt.Errorf("clocksync: cluster size %d exceeds n = %d", c, n)
	}
	hcfg := hier.Default(n, c)
	hcfg.Rho = o.rho
	hcfg.P = o.roundLength
	hcfg.ElectAfter = 2.5 * o.roundLength
	hcfg.T0 = o.t0
	if f > 0 {
		// In two-tier mode f bounds the Byzantine representatives (f_out);
		// 0 keeps the largest budget the cluster count supports. The
		// per-cluster budget f_in always comes from the cluster size.
		hcfg.FOut = f
	}
	if err := hcfg.Validate(); err != nil {
		return nil, fmt.Errorf("clocksync: %w", err)
	}
	return &Cluster{cfg: core.Config{Params: hcfg.InnerParams(0)}, opts: o, hier: &hcfg}, nil
}

// Params returns the validated parameter set in effect. For a two-tier
// Cluster this is the inner tier's (per-cluster) parameter set; the outer
// tier's parameters are internal to the composition.
func (c *Cluster) Params() analysis.Params { return c.cfg.Params }

// Run simulates the given number of synchronization rounds and reports the
// measured quantities next to the paper's bounds. A configured Cluster is
// read-only here: concurrent Runs are independent and equal.
func (c *Cluster) Run(rounds int) (*Report, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("clocksync: rounds must be positive, got %d", rounds)
	}
	w := exp.Workload{
		Rounds:     rounds,
		Seed:       c.opts.seed,
		SkewBucket: c.opts.skewBucket,
	}
	switch k := c.opts.shards; {
	case k > 1:
		w.Shards = k
	case k < 1:
		w.Shards = exp.Auto
	}
	var tracer *sim.Tracer
	if c.opts.traceLimit > 0 {
		tracer = sim.NewTracer(c.opts.traceLimit)
		w.Observers = append(w.Observers, tracer)
	}
	var rejoiner *core.Rejoiner
	if c.hier != nil {
		// Built per Run: the system's automata are stateful and single-use.
		s, err := hier.Build(*c.hier)
		if err != nil {
			return nil, fmt.Errorf("clocksync: %w", err)
		}
		w.Hier = s
	} else {
		w.Cfg = c.cfg
		w.Delay = c.opts.delayModel(c.cfg)
		w.Drift = c.opts.driftSchedule(c.cfg)
		w.InitialSpread = c.opts.initialSpread
		w, rejoiner = c.flatFaults(w)
	}
	res, err := exp.Run(w)
	if err != nil {
		return nil, fmt.Errorf("clocksync: %w", err)
	}
	var rep *Report
	if c.hier != nil {
		rep = twoTierReport(w.Hier, res)
	} else {
		rep = buildReport(c.cfg, res, rejoiner)
	}
	if tracer != nil {
		var b strings.Builder
		if _, err := tracer.WriteTo(&b); err != nil {
			return nil, fmt.Errorf("clocksync: render trace: %w", err)
		}
		rep.Trace = b.String()
	}
	return rep, nil
}

// flatFaults places New's strategies and the WithRejoiner process into the
// flat mesh's fault slots in w, and returns the rejoiner for the report to
// ask whether it joined. Placed per Run: the automata (and adversaries) are
// stateful and single-use.
func (c *Cluster) flatFaults(w exp.Workload) (exp.Workload, *core.Rejoiner) {
	for _, p := range c.places {
		procs, adv := faults.Place(p.s, c.cfg, p.members, c.opts.seed, p.pull)
		if w.Faults == nil {
			w.Faults = procs
		} else {
			maps.Copy(w.Faults, procs)
		}
		if adv != nil {
			w.Adversary = adv
		}
	}
	var rejoiner *core.Rejoiner
	if r := c.opts.rejoin; r != nil {
		id := sim.ProcID(r.id)
		rejoiner = core.NewRejoiner(c.cfg, clock.Local(r.corr))
		if w.Faults == nil {
			w.Faults = map[sim.ProcID]func() sim.Process{}
		}
		w.Faults[id] = func() sim.Process { return rejoiner }
		w.StartOverride = map[sim.ProcID]clock.Real{id: clock.Real(r.wake)}
	}
	return w, rejoiner
}

// RunStartup executes the §9.2 establishment algorithm from clocks spread
// arbitrarily over `spread` seconds, for approximately `rounds` rounds, and
// reports the per-round closeness Bᵢ with the Lemma 20 recurrence.
func RunStartup(n, f int, spread float64, rounds int, opts ...Option) (*StartupReport, error) {
	o := resolve(opts)
	if err := o.reject(startupReason, ""); err != nil {
		return nil, err
	}
	params := o.params(n, f)
	cfg := core.Config{Params: params, Averager: o.averager}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("clocksync: %w", err)
	}
	if rounds <= 0 {
		rounds = 15
	}
	// Each startup round takes ≈ StartupWait1+StartupWait2+2δ real time.
	perRound := float64(params.StartupWait1()) + float64(params.StartupWait2()) + float64(2*params.Delta)
	horizon := clock.Real(float64(float64(rounds)*perRound) + 1)
	bs, final, err := exp.RunStartup(cfg, spread, horizon, o.seed)
	if err != nil {
		return nil, fmt.Errorf("clocksync: startup: %w", err)
	}
	return &StartupReport{
		BSeries:    bs,
		FinalSkew:  final,
		Floor:      params.StartupFloor(),
		FourEps:    4 * params.Eps,
		Recurrence: params.StartupStep,
	}, nil
}

// RunEstablishThenMaintain runs the paper's full lifecycle: the §9.2
// start-up algorithm from clocks spread over `spread` seconds, a switch to
// the §4.2 maintenance algorithm after startupRounds rounds (see
// core.SwitchProc for the message-free switch rule), and then maintRounds of
// maintenance. The report's skew fields cover the maintenance phase.
func RunEstablishThenMaintain(n, f int, spread float64, startupRounds, maintRounds int, opts ...Option) (*Report, error) {
	o := resolve(opts)
	if err := o.reject(lifecycleReason, ""); err != nil {
		return nil, err
	}
	params := o.params(n, f)
	cfg := core.Config{Params: params, Averager: o.averager}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("clocksync: %w", err)
	}
	if startupRounds < 2 {
		startupRounds = 2
	}
	if maintRounds <= 0 {
		maintRounds = 10
	}

	perStartupRound := float64(params.StartupWait1()) + float64(params.StartupWait2()) + float64(2*params.Delta)
	switchSlack := float64(3 * params.P) // the epoch is up to ~2P after the switch decision
	// Steady state: after startup, switch and a couple of maintenance rounds.
	warmup := clock.Real(float64(float64(startupRounds)*perStartupRound) + switchSlack + float64(2*params.P))
	horizon := clock.Real(float64(float64(startupRounds)*perStartupRound) + switchSlack + float64(float64(maintRounds)*params.P*(1+float64(2*params.Rho))) + 1)
	res, procs, err := exp.RunLifecycle(exp.Workload{
		Cfg: cfg, Seed: o.seed, SkewBucket: o.skewBucket,
		Drift: o.driftSchedule(cfg), Delay: o.delayModel(cfg),
	}, spread, startupRounds, warmup, horizon)
	if err != nil {
		return nil, fmt.Errorf("clocksync: %w", err)
	}
	minRound := -1
	for i, sp := range procs {
		if !sp.Switched() {
			return nil, fmt.Errorf("clocksync: process %d never switched to maintenance (startup round %d)", i, sp.StartupRound())
		}
		if r := sp.MaintenanceRound(); minRound < 0 || r < minRound {
			minRound = r
		}
	}
	return &Report{
		Rounds:        minRound,
		MaxSkew:       res.Skew.Max(),
		SteadySkew:    res.Skew.MaxAfterWarmup(),
		Gamma:         cfg.Gamma(),
		BetaFloor:     cfg.BetaFloor(),
		MaxAdjustment: res.Rounds.MaxAbsAdj(warmup),
		AdjBound:      cfg.AdjBound(),
		MessagesSent:  res.MessagesSent(),
		MessagesLost:  res.MessagesLost(),
		SkewSeries:    res.Skew.Series(),
	}, nil
}

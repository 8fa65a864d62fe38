package clocksync

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

// FaultKind selects a Byzantine behavior for a process: a strategy of the
// internal/faults registry, named in faultKinds.
type FaultKind uint8

// Fault behaviors available through the public API.
const (
	// FaultSilent never sends anything (a crashed process).
	FaultSilent FaultKind = iota + 1
	// FaultTwoFaced sends its round message 3ε early to half the processes
	// and 3ε late to the rest — the canonical Byzantine attack on averaging.
	FaultTwoFaced
	// FaultNoise floods the system with bogus messages at random times.
	FaultNoise
	// FaultStaleReplay rebroadcasts an old round mark, always 3ε late.
	FaultStaleReplay
	// FaultCrashMidRun behaves correctly for five rounds and then stops.
	FaultCrashMidRun
)

// faultKinds is what each FaultKind means: a registry strategy and its pull
// in units of ε (0: the strategy's default). The facade's timing attacks
// pull 3ε, inside every honest window, where the registry's defaults pull
// β − ε.
var faultKinds = [...]struct {
	strategy string
	pullEps  float64
}{
	FaultSilent:      {"silent", 0},
	FaultTwoFaced:    {"two-faced", 3},
	FaultNoise:       {"noise", 0},
	FaultStaleReplay: {"stale-replay", 3},
	FaultCrashMidRun: {"crash-mid-run", 0},
}

// ParseFaultKind returns the FaultKind of a registry strategy name.
func ParseFaultKind(name string) (FaultKind, error) {
	for k, row := range faultKinds {
		if row.strategy == name && name != "" {
			return FaultKind(k), nil
		}
	}
	return 0, fmt.Errorf("clocksync: unknown fault kind %q", name)
}

// Averaging re-exports the §4/§7 averaging choices.
type Averaging = core.Averager

// Averaging function choices for WithAveraging.
const (
	// Midpoint is the paper's choice: error halves each round.
	Midpoint = core.Midpoint
	// Mean is the §7 variant: error contracts by ≈ f/(n−2f) per round.
	Mean = core.Mean
)

// DelayDistribution selects how message delays are drawn from [δ−ε, δ+ε].
type DelayDistribution uint8

// Delay distributions for WithDelayDistribution.
const (
	// DelayUniform draws every delay uniformly (the benign default).
	DelayUniform DelayDistribution = iota + 1
	// DelayConstant delivers every message in exactly δ.
	DelayConstant
	// DelayAdversarial pins each delay at a band edge chosen per recipient
	// — the worst case for the arrival-time estimator.
	DelayAdversarial
)

// Topology selects the synchronization topology for a Cluster.
type Topology uint8

// Topologies for WithTopology.
const (
	// TopologyFlat is the paper's all-to-all mesh (the default): every
	// process exchanges with every other, Θ(n²) messages per round.
	TopologyFlat Topology = iota
	// TopologyTwoTier composes the algorithm twice (see README
	// "Hierarchical synchronization"): clusters run it internally on a fast
	// substrate, elected representatives run it again across clusters, and
	// followers discipline to their representative — ≈ n·c + (n/c)² messages
	// per round instead of n².
	TopologyTwoTier
)

type options struct {
	rho           float64
	delta, eps    float64
	deltaSet      bool
	beta          float64
	betaSet       bool
	topology      Topology
	clusterSize   int
	roundLength   float64
	t0            float64
	averager      core.Averager
	k             int
	stagger       float64
	seed          int64
	shards        int
	initialSpread float64
	skewBucket    clock.Real
	delayDist     DelayDistribution
	randomDrift   bool
	deriveBeta    bool
	traceLimit    int
	faults        map[int]FaultKind
	adversary     string
	rejoin        *rejoinSpec
}

// rejoinSpec is WithRejoiner's process: its id, wake time and initial
// correction.
type rejoinSpec struct {
	id         int
	wake, corr float64
}

func defaultOptions() options {
	return options{
		rho:         1e-5,
		delta:       10e-3,
		eps:         1e-3,
		beta:        5.5e-3,
		roundLength: 1.0,
		seed:        1,
		delayDist:   DelayUniform,
	}
}

// resolve applies opts over the defaults.
func resolve(opts []Option) options {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// params assembles the flat mesh's parameter set for an n-process system
// tolerating f faults.
func (o options) params(n, f int) analysis.Params {
	return analysis.Params{
		N: n, F: f,
		Rho: o.rho, Delta: o.delta, Eps: o.eps,
		Beta: o.beta, P: o.roundLength, T0: o.t0,
	}
}

// optionRule is one row of the composition table: an option the caller may
// have set, and the entry points that cannot honour it. Rejections are
// decided here and nowhere else — cmd/wlsim passes the flags the user set
// through as options and prints the facade's error — so every row names both
// the option and the wlsim flag that sets it.
type optionRule struct {
	option string // the facade option, as errors cite it
	flag   string // the cmd/wlsim flag that sets it ("" if none does)
	set    func(o *options) bool
	// twoTier is why a two-tier topology cannot honour the option ("" if it
	// can). The composition owns its substrates, fault slots and
	// measurement hooks, so the options that configure the flat mesh's
	// single substrate are rejected by name rather than silently
	// reinterpreted.
	twoTier string
	// sharded gives why the option, as set in o, cannot run alongside
	// WithShards ("" if it can; nil: it always can). The sharded engine has
	// no sequential order of deliveries inside a window, so what needs one —
	// a per-delivery log, an adversary that reads local times at each send
	// and arrivals in global order — is rejected here, by name, rather than
	// by the engine at Run.
	sharded func(o *options) string
	// startup and lifecycle mark the options RunStartup and
	// RunEstablishThenMaintain have no use for.
	startup, lifecycle bool
}

var optionRules = []optionRule{
	{option: "WithDelay", flag: "-delta/-eps", set: func(o *options) bool { return o.deltaSet },
		twoTier: "configures the flat mesh's single substrate; a two-tier topology runs on its own (δ_in, ε_in)/(δ_out, ε_out) pair"},
	{option: "WithBeta", flag: "-beta", set: func(o *options) bool { return o.betaSet },
		twoTier: "configures the flat mesh's initial closeness; a two-tier topology derives both tiers' A4 spreads"},
	{option: "WithDerivedBeta", set: func(o *options) bool { return o.deriveBeta }, startup: true, lifecycle: true,
		twoTier: "applies to the flat mesh's single parameter set; a two-tier topology derives both tiers' spreads itself"},
	{option: "WithAveraging(Mean)", flag: "-mean", set: func(o *options) bool { return o.averager == Mean },
		twoTier: "is not plumbed through the two-tier composition (both tiers run midpoint)"},
	{option: "WithKExchanges", flag: "-k", set: func(o *options) bool { return o.k > 1 }, startup: true, lifecycle: true,
		twoTier: "applies to the flat single-instance round; two-tier rounds are single-exchange per tier"},
	{option: "WithStagger", flag: "-stagger", set: func(o *options) bool { return o.stagger > 0 }, startup: true, lifecycle: true,
		twoTier: "applies to the flat mesh's broadcast; two-tier traffic is already one multicast per cluster"},
	{option: "WithDelayDistribution", flag: "-adversarial", set: func(o *options) bool { return o.delayDist != DelayUniform }, startup: true,
		twoTier: "configures the flat mesh's delay model; a two-tier topology uses its clustered two-band model"},
	{option: "WithRandomDrift", set: func(o *options) bool { return o.randomDrift }, startup: true,
		twoTier: "is not plumbed through the two-tier builder (constant ρ-bounded rates)"},
	{option: "WithInitialSpread", set: func(o *options) bool { return o.initialSpread != 0 }, startup: true, lifecycle: true,
		twoTier: "overrides the flat mesh's A4 spread; a two-tier topology derives a spread satisfying both tiers at once"},
	{option: "WithSkewSeries", set: func(o *options) bool { return o.skewBucket != 0 }, startup: true},
	{option: "WithFault", flag: "-faults", set: func(o *options) bool { return len(o.faults) > 0 }, startup: true, lifecycle: true,
		twoTier: "fills the flat mesh's fault slots; two-tier fault injection lives in experiment E20"},
	{option: "WithAdversary", flag: "-adversary", set: func(o *options) bool { return o.adversary != "" }, startup: true, lifecycle: true,
		twoTier: "targets the flat mesh; two-tier fault injection lives in experiment E20",
		sharded: func(o *options) string {
			if s, err := faults.ByName(o.adversary); err != nil || !s.Adaptive() {
				return "" // schedule-driven strategies only fill fault slots
			}
			return "installs an adaptive network adversary, which reads local times at each send, and arrivals, in global order, so it needs the sequential engine"
		}},
	{option: "WithRejoiner", set: func(o *options) bool { return o.rejoin != nil }, startup: true, lifecycle: true,
		twoTier: "applies to the flat mesh's §9.1 path"},
	{option: "WithTrace", flag: "-trace", set: func(o *options) bool { return o.traceLimit > 0 }, startup: true, lifecycle: true,
		sharded: func(*options) string {
			return "records every delivery, and per-delivery observers are not yet implemented on the sharded engine"
		}},
	{option: "WithTopology/WithClusters", flag: "-topology/-clusters", set: func(o *options) bool { return o.topology != TopologyFlat }, startup: true, lifecycle: true},
	{option: "WithShards", flag: "-shards", set: func(o *options) bool { return o.shards > 1 }, startup: true, lifecycle: true},
}

// cite names the rule's option and, when one exists, its wlsim flag.
func (r *optionRule) cite() string {
	if r.flag == "" {
		return r.option
	}
	return fmt.Sprintf("%s (wlsim %s)", r.option, r.flag)
}

// The entry points that consult the table, as reject's why argument: each
// gives its reason for turning a rule's option down, "" if it honours it.
func twoTierReason(r *optionRule) string { return r.twoTier }

func (o *options) shardedReason(r *optionRule) string {
	if o.shards > 1 && r.sharded != nil {
		return r.sharded(o)
	}
	return ""
}

func startupReason(r *optionRule) string {
	if r.startup {
		return "has no effect on RunStartup (the §9.2 establishment run is the sequential flat mesh on constant drift and uniform delays, spread by its own argument)"
	}
	return ""
}

func lifecycleReason(r *optionRule) string {
	if r.lifecycle {
		return "has no effect on RunEstablishThenMaintain (the lifecycle run is the sequential flat mesh, fault-free and single-exchange, spread by its own argument)"
	}
	return ""
}

// reject returns the named error for the first option set in o that an
// entry point cannot honour; alt names what else the caller could drop.
func (o *options) reject(why func(r *optionRule) string, alt string) error {
	for i := range optionRules {
		r := &optionRules[i]
		if reason := why(r); reason != "" && r.set(o) {
			return fmt.Errorf("clocksync: %s %s — drop %s%s", r.cite(), reason, r.option, alt)
		}
	}
	return nil
}

func (o options) delayModel(cfg core.Config) sim.DelayModel {
	switch o.delayDist {
	case DelayConstant:
		return sim.ConstantDelay{Delta: cfg.Delta}
	case DelayAdversarial:
		return sim.ExtremalDelay{Delta: cfg.Delta, Eps: cfg.Eps}
	default:
		return sim.UniformDelay{Delta: cfg.Delta, Eps: cfg.Eps}
	}
}

func (o options) driftSchedule(cfg core.Config) clock.DriftSchedule {
	if o.randomDrift {
		return clock.RandomWalkDrift{RhoBound: cfg.Rho, SegmentDur: 5, Horizon: 3600, Seed: o.seed}
	}
	return clock.ConstantDrift{RhoBound: cfg.Rho}
}

// Option customizes a Cluster.
type Option func(*options)

// WithRho sets the clock drift bound ρ (A1).
func WithRho(rho float64) Option { return func(o *options) { o.rho = rho } }

// WithDelay sets the message delay parameters δ and ε (A3).
func WithDelay(delta, eps float64) Option {
	return func(o *options) { o.delta, o.eps, o.deltaSet = delta, eps, true }
}

// WithBeta sets the initial-closeness parameter β (A4).
func WithBeta(beta float64) Option { return func(o *options) { o.beta, o.betaSet = beta, true } }

// WithRoundLength sets the round length P (in local-time seconds). It must
// satisfy the §5.2 constraints for the other parameters.
func WithRoundLength(p float64) Option { return func(o *options) { o.roundLength = p } }

// WithT0 sets the first round mark T⁰.
func WithT0(t0 float64) Option { return func(o *options) { o.t0 = t0 } }

// WithAveraging selects the averaging function (Midpoint or Mean).
func WithAveraging(a Averaging) Option { return func(o *options) { o.averager = a } }

// WithKExchanges sets the §7 variant exchanging clock values k times per
// round.
func WithKExchanges(k int) Option { return func(o *options) { o.k = k } }

// WithStagger enables §9.3 staggered broadcasts with spacing σ.
func WithStagger(sigma float64) Option { return func(o *options) { o.stagger = sigma } }

// WithSeed makes the run reproducible under a different randomness stream.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithShards runs the simulation on the sharded time-window engine,
// partitioning the processes across k shards that drain conservative
// lookahead windows in parallel (see README "Sharded execution for large
// n"). The execution — every delivery, every measured quantity — is
// byte-identical for every k, so the knob trades nothing but hardware.
// What the sharded engine does not run — WithTrace's per-delivery log (not
// yet implemented there), an adaptive WithAdversary strategy — is rejected
// by New from the option table, naming both options. Leaving the option out
// (or k ≤ 0) is Auto: a flat mesh the window composes with runs on
// min(GOMAXPROCS, n / n₀, 2) shards, n₀ and the cap of 2 read off the
// measured crossover table in BENCH_engine.json (a 2-core host: no wider k
// is measured to win), and a two-tier one on one; with WithTrace or an
// adaptive WithAdversary Auto runs the time-major engine instead, without
// an error. k = 1 runs one window partition on the calling goroutine, with
// the same time-major fallback. Composes with both topologies.
func WithShards(k int) Option { return func(o *options) { o.shards = k } }

// WithInitialSpread spreads the initial logical clocks over the given real
// width (default 0.9β; pass more to watch convergence from out-of-spec
// initial states).
func WithInitialSpread(width float64) Option {
	return func(o *options) { o.initialSpread = width }
}

// WithSkewSeries collects a per-bucket max-skew series in the report.
func WithSkewSeries(bucket float64) Option {
	return func(o *options) { o.skewBucket = clock.Real(bucket) }
}

// WithDelayDistribution selects the delay distribution.
func WithDelayDistribution(d DelayDistribution) Option {
	return func(o *options) { o.delayDist = d }
}

// WithRandomDrift gives each clock a randomly wandering (still ρ-bounded)
// rate instead of a constant one.
func WithRandomDrift() Option { return func(o *options) { o.randomDrift = true } }

// WithFault makes process id faulty with the given behavior (a later
// WithFault for the same id replaces it). Fault placement is one per-id
// table: WithFault, WithAdversary's members and WithRejoiner each place the
// ids they name, and New rejects an id outside [0, n), an id placed by two
// of them, or more than f placed ids.
func WithFault(id int, kind FaultKind) Option {
	return func(o *options) {
		if o.faults == nil {
			o.faults = make(map[int]FaultKind)
		}
		o.faults[id] = kind
	}
}

// WithAdversary installs a registered adversary strategy by name (see
// internal/faults: faults.Strategies lists them, cmd/wlsim -adversary-list
// prints them) on its conventional placement: schedule-driven strategies
// make the top f processes faulty with the strategy's automata; adaptive
// strategies additionally (or, for pure retimers such as "skewmax", which
// place no process) install the strategy's network adversary on the
// engine's delivery pipeline, where its retiming is clamped to [δ−ε, δ+ε].
// The placed ids go into WithFault's per-id table, so a WithFault or
// WithRejoiner on other ids composes with it.
func WithAdversary(name string) Option { return func(o *options) { o.adversary = name } }

// WithRejoiner replaces process id with a §9.1 reintegrating process that
// wakes at real time wakeAt with its clock off by initialCorr seconds. It
// places id in WithFault's per-id table: the process counts toward the f
// fault budget for the whole run.
func WithRejoiner(id int, wakeAt, initialCorr float64) Option {
	return func(o *options) { o.rejoin = &rejoinSpec{id: id, wake: wakeAt, corr: initialCorr} }
}

// WithTrace records the execution's action log (up to limit events; ≤ 0
// means a default cap) and exposes it as Report.Trace.
func WithTrace(limit int) Option {
	return func(o *options) {
		if limit <= 0 {
			limit = 10_000
		}
		o.traceLimit = limit
	}
}

// WithDerivedBeta derives the smallest feasible β for the configured ρ, δ,
// ε and round length (plus a safety margin) instead of using the default or
// a WithBeta value — the §5.2 feasibility computation done for you.
func WithDerivedBeta() Option { return func(o *options) { o.deriveBeta = true } }

// WithTopology selects the synchronization topology. TopologyTwoTier runs
// the two-tier hierarchy with clusters of ≈ √n processes (the
// traffic-optimal size; override with WithClusters) on the hierarchy's
// LAN-under-WAN substrate defaults — in two-tier mode the f argument of New
// bounds the Byzantine *representatives* f_out (0 derives the largest
// budget the cluster count supports) and the per-cluster budget f_in is
// derived from the cluster size. Both topologies run through the same
// harness step, so what is not about the flat mesh composes: WithSeed,
// WithRho, WithRoundLength, WithT0, WithSkewSeries, WithTrace, and WithShards
// (draining the clusters' inner rounds in parallel). Options that configure
// the flat mesh's single substrate or its fault slots (WithDelay, WithBeta,
// WithFault, WithAdversary, …) are rejected with a named error.
func WithTopology(t Topology) Option { return func(o *options) { o.topology = t } }

// WithClusters runs the two-tier hierarchy with clusters of c processes
// (implies WithTopology(TopologyTwoTier); c ≤ 0 picks c ≈ √n).
func WithClusters(c int) Option {
	return func(o *options) { o.topology, o.clusterSize = TopologyTwoTier, c }
}

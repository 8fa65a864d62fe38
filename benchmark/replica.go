package main

import (
	"fmt"
	"math"

	clocksync "repro"
	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/hier"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// The facade cannot be decorated from outside, so the traced pass rebuilds
// each facade workload's system from the public constructors the facade
// itself uses and drives the engine directly. A replica that does not
// reproduce its facade op's rounds, messages and steady skew exactly is
// reported invalid (see tracePass), so drift between this file and
// clocksync.go / internal/exp/run.go cannot go unnoticed.

// engine is what the benchmark reads from either engine.
type engine interface {
	Run(until clock.Real) error
	Steps() int
	MessagesSent() int64
	MessagesLost() int64
	QueuePeak() int
	LocalTimeSpread(t clock.Real) (lo, hi clock.Local, count int)
	Now() clock.Real
}

func attach(e engine, o sim.Observer) error {
	switch e := e.(type) {
	case *sim.Engine:
		e.Observe(o)
		return nil
	case *sim.ShardedEngine:
		return e.Observe(o)
	}
	return fmt.Errorf("unknown engine %T", e)
}

// observer is an observer the facade attaches, with the layer its time is
// booked to.
type observer struct {
	o     sim.Observer
	layer string // "metrics" or "invariant"
}

// system is an assembled run: the engine configuration, the observers in the
// order the facade registers them, and how to read the result back.
type system struct {
	cfg       sim.Config
	shards    int // ≤ 1 means the sequential engine
	horizon   clock.Real
	observers []observer
	// procSpan names, per process, the receive span its automaton belongs
	// to; honest is the span of the nonfaulty ones, which emit annotations.
	procSpan []string
	honest   string
	// hierBuildNs is the time spent in hier.Build + SimConfig, zero for flat.
	hierBuildNs float64
	result      func(e engine) opResult
}

// flatSpec is a flat-mesh facade workload stated on the harness's terms.
type flatSpec struct {
	cfg    core.Config
	rounds int
	shards int
	faults map[int]clocksync.FaultKind
	// suite attaches the invariant suite, as exp.Workload.CheckInvariants
	// does for scenario runs.
	suite bool
}

// faultBuilders mirrors clocksync's faultBuilder for the kinds benchmarked.
func (s flatSpec) faultBuilders() (map[sim.ProcID]func() sim.Process, error) {
	cfg := s.cfg
	out := make(map[sim.ProcID]func() sim.Process, len(s.faults))
	for id, kind := range s.faults {
		switch kind {
		case clocksync.FaultSilent:
			out[sim.ProcID(id)] = func() sim.Process { return faults.Silent{} }
		case clocksync.FaultTwoFaced:
			out[sim.ProcID(id)] = func() sim.Process {
				return &faults.TwoFaced{Cfg: cfg, Lead: 3 * cfg.Eps, Lag: 3 * cfg.Eps}
			}
		default:
			return nil, fmt.Errorf("fault kind %d has no replica builder", kind)
		}
	}
	return out, nil
}

// workload is the exp.Workload the facade hands to exp.Run for this spec.
func (s flatSpec) workload(seed int64) (exp.Workload, error) {
	builders, err := s.faultBuilders()
	if err != nil {
		return exp.Workload{}, err
	}
	w := exp.Workload{
		Cfg: s.cfg, Rounds: s.rounds, Seed: seed, Shards: s.shards,
		Delay:           sim.UniformDelay{Delta: s.cfg.Delta, Eps: s.cfg.Eps},
		Drift:           clock.ConstantDrift{RhoBound: s.cfg.Rho},
		CheckInvariants: s.suite,
	}
	if len(builders) > 0 {
		w.Faults = builders
	}
	return w, nil
}

// buildFlat assembles what exp.Run assembles for the spec.
func buildFlat(s flatSpec, seed int64) (*system, error) {
	cfg := s.cfg
	n := cfg.N
	builders, err := s.faultBuilders()
	if err != nil {
		return nil, err
	}
	drift := clock.ConstantDrift{RhoBound: cfg.Rho}
	clocks := make([]clock.Clock, n)
	for i := range clocks {
		clocks[i] = drift.Build(i, n)
	}
	corrs := core.InitialCorrsWithinBeta(cfg, clocks, 0.9*cfg.Beta)
	starts := core.StartTimes(cfg, clocks, corrs)

	procs := make([]sim.Process, n)
	faulty := make([]bool, n)
	spans := make([]string, n)
	for i := range procs {
		if mk, ok := builders[sim.ProcID(i)]; ok {
			procs[i], faulty[i], spans[i] = mk(), true, "faults.receive"
			continue
		}
		procs[i], spans[i] = core.NewProc(cfg, corrs[i]), "core.receive"
	}
	tmin0, tmax0 := clock.Real(math.Inf(1)), clock.Real(math.Inf(-1))
	for i, at := range starts {
		if !faulty[i] {
			tmin0, tmax0 = min(tmin0, at), max(tmax0, at)
		}
	}

	skew := &metrics.SkewRecorder{Warmup: tmax0 + clock.Real(float64(s.rounds/2)*cfg.P)}
	rrec := metrics.NewDefaultRoundRecorder()
	a1, a2, a3 := cfg.Validity()
	vrec := &metrics.ValidityRecorder{
		Alpha1: a1, Alpha2: a2, Alpha3: a3,
		T0: cfg.T0, TMin0: tmin0, TMax0: tmax0, From: tmax0,
	}
	observers := []observer{{skew, "metrics"}, {rrec, "metrics"}, {vrec, "metrics"}}
	if s.suite {
		for _, o := range invariant.NewSuite(cfg.Params, tmin0, tmax0, skew.Warmup).Observers() {
			observers = append(observers, observer{o, "invariant"})
		}
	}
	return &system{
		cfg: sim.Config{
			Procs: procs, Clocks: clocks, StartAt: starts, Faulty: faulty, Seed: seed,
			Delay:     sim.UniformDelay{Delta: cfg.Delta, Eps: cfg.Eps},
			EventHint: sim.DefaultEventHint(sim.BroadcastAuto, n),
		},
		shards:    s.shards,
		horizon:   tmax0 + clock.Real(float64(s.rounds)*cfg.P*(1+2*cfg.Rho)+2*cfg.Window()+cfg.Delta+1),
		observers: observers,
		procSpan:  spans,
		honest:    "core.receive",
		result: func(e engine) opResult {
			return opResult{
				rounds: rrec.Rounds(), msgs: e.MessagesSent(), lost: e.MessagesLost(),
				maxSkew: skew.Max(), steadySkew: skew.MaxAfterWarmup(),
				maxAdj: rrec.MaxAbsAdj(0), gamma: cfg.Gamma(),
			}
		},
	}, nil
}

// hierSkew restates the facade's two-tier skew sampler (unexported there):
// all-time and post-warm-up maxima of the nonfaulty local-time spread.
type hierSkew struct {
	warm        clock.Real
	max, steady float64
}

func (h *hierSkew) Sample(e *sim.Engine, _ bool) {
	lo, hi, count := e.LocalTimeSpread(e.Now())
	if count < 2 {
		return
	}
	d := float64(hi - lo)
	h.max = max(h.max, d)
	if e.Now() >= h.warm {
		h.steady = max(h.steady, d)
	}
}

// buildTwoTier assembles what the facade's two-tier path assembles for
// New(n, 0, WithClusters(0)) on the sequential engine.
func buildTwoTier(fc facade, p analysis.Params, seed int64) (*system, error) {
	t0 := now()
	hcfg := hier.Default(fc.n, int(math.Round(math.Sqrt(float64(fc.n)))))
	hcfg.Rho, hcfg.P, hcfg.T0 = p.Rho, p.P, p.T0
	hcfg.ElectAfter = 2.5 * p.P
	s, err := hier.Build(hcfg)
	if err != nil {
		return nil, err
	}
	scfg := s.SimConfig(fc.rounds, seed)
	buildNs := nsSince(t0)

	warm := s.Warmup(fc.rounds)
	chk := invariant.NewHierAgreement(hcfg.GammaComposed(), hcfg.GammaInner(), hcfg.ClusterSize, warm)
	skew := &hierSkew{warm: warm}
	spans := make([]string, fc.n)
	for i := range spans {
		spans[i] = "hier.receive"
	}
	return &system{
		cfg:         scfg,
		horizon:     s.Horizon(fc.rounds),
		observers:   []observer{{chk, "invariant"}, {skew, "metrics"}},
		procSpan:    spans,
		honest:      "hier.receive",
		hierBuildNs: buildNs,
		result: func(e engine) opResult {
			r := opResult{
				rounds: -1, msgs: e.MessagesSent(), lost: e.MessagesLost(),
				maxSkew: skew.max, steadySkew: skew.steady, gamma: hcfg.GammaComposed(),
			}
			for _, p := range s.Procs {
				if m, ok := p.(*hier.Member); ok && (r.rounds < 0 || m.Round() < r.rounds) {
					r.rounds = m.Round()
				}
			}
			if !chk.Ok() {
				r.failure = "two-tier inner agreement violated"
			}
			return r
		},
	}, nil
}

// driven is a finished run.
type driven struct {
	eng      engine
	res      opResult
	events   int
	runStart stamp
	runNs    float64
	// decorNs is the time spent wrapping the seams, which is the tracer's
	// doing and not part of the build being measured.
	decorNs float64
}

// drive builds the engine and runs it to the horizon. With t non-nil every
// seam is decorated and the spans under build and sim.run are recorded into
// t; with observe false no observer is attached (the engine-only ceiling).
func (sys *system) drive(t *opTrace, observe bool) (*driven, error) {
	cfg := sys.cfg
	n := len(cfg.Procs)
	var recv, delay []acc
	start := now()
	if t != nil {
		recv, delay = make([]acc, n), make([]acc, n)
		procs := make([]sim.Process, n)
		for i, p := range cfg.Procs {
			procs[i] = decorateProc(p, &recv[i])
		}
		cfg.Procs = procs
		cfg.Delay = decorateDelay(cfg.Delay, delay)
	}

	decorNs := nsSince(start)
	t0 := now()
	var eng engine
	if sys.shards > 1 {
		se, err := sim.NewSharded(cfg, sys.shards)
		if err != nil {
			return nil, err
		}
		eng = se
	} else {
		e, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		eng = e
	}
	simNewNs := nsSince(t0)

	type observerAcc struct {
		layer           string
		samples, annots acc
	}
	var oaccs []*observerAcc
	if observe {
		for _, ob := range sys.observers {
			o := ob.o
			if t != nil {
				oa := &observerAcc{layer: ob.layer}
				oaccs = append(oaccs, oa)
				var err error
				if o, err = decorateObserver(o, &oa.samples, &oa.annots); err != nil {
					return nil, err
				}
			}
			if err := attach(eng, o); err != nil {
				return nil, err
			}
		}
	}

	d := &driven{eng: eng, decorNs: decorNs, runStart: now()}
	if err := eng.Run(sys.horizon); err != nil {
		return nil, err
	}
	d.runNs = nsSince(d.runStart)
	d.events = eng.Steps()
	d.res = opResult{msgs: eng.MessagesSent(), lost: eng.MessagesLost()}
	if observe {
		d.res = sys.result(eng)
	}
	if t == nil {
		return d, nil
	}

	t.coarse("sim.new", "build", simNewNs)
	t.spans = append(t.spans, spanRecord{
		Op: t.op, Name: "sim.run", Parent: "op", Calls: 1, TotalNs: d.runNs, Parallel: max(sys.shards, 1),
	})
	seen := map[string]bool{}
	for _, name := range sys.procSpan {
		if seen[name] {
			continue
		}
		seen[name] = true
		var r, dl acc
		for i := range recv {
			if sys.procSpan[i] == name {
				r.merge(recv[i])
				dl.merge(delay[i])
			}
		}
		t.timed(name, "sim.run", r)
		t.timed("delay.sample", name, dl)
	}
	// The sequential engine calls annotation sinks from inside Receive; the
	// sharded one buffers annotations and dispatches them at window cuts.
	annotParent := sys.honest
	if sys.shards > 1 {
		annotParent = "sim.run"
	}
	for _, layer := range []string{"metrics", "invariant"} {
		var s, a acc
		for _, oa := range oaccs {
			if oa.layer == layer {
				s.merge(oa.samples)
				a.merge(oa.annots)
			}
		}
		t.timed(layer+".sample", "sim.run", s)
		t.timed(layer+".annotation", annotParent, a)
	}
	for _, oa := range oaccs {
		if oa.samples.calls > 0 {
			t.counts["sample_fanouts"] = float64(oa.samples.calls)
			break
		}
	}
	t.counts["events"] = float64(d.events)
	t.counts["queue_peak"] = float64(eng.QueuePeak())
	if se, ok := eng.(*sim.ShardedEngine); ok {
		st := se.Stats()
		t.counts["shard_windows"] = float64(st.Windows)
		t.counts["shard_barriers"] = float64(st.Barriers)
		t.counts["shard_batched_windows"] = float64(st.BatchedWindows)
	}
	return d, nil
}

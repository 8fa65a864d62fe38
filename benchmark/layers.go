package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/exp/runner"
	"repro/internal/multiset"
	"repro/internal/scenario"
)

// layerDef is one per-layer metric with the prediction written down before
// measuring: which end-to-end metric it should move, on which workload, and
// where the prediction is no change. A layer is a package of this module.
type layerDef struct {
	name, unit, better string
	moves              string
}

// layerMetrics is the ledger's schema, in report order. Every traced run
// prints every row; a layer that is not on a workload's path reads 0 there.
var layerMetrics = []layerDef{
	{"sim.events_per_op", "count", "lower", "exact; msgs_per_s counts the same work from the Report"},
	{"sim.queue_peak", "count", "lower", "exact; alloc_mb_per_op on flat_n1009_k2, twotier_n529_seq"},
	{"sim.new_ms", "ms", "lower", "op_ms_p50 on scenario_corpus-sized runs; a fixed cost elsewhere"},
	{"sim.run_self_ns_per_event", "ns/event", "lower", "msgs_per_s on flat_n1009_k2 and flat_n7_faulty; no change on flat_n101_seq, twotier_n529_seq"},
	{"sim.delay_sample_ns_per_msg", "ns/msg", "lower", "msgs_per_s on flat_n1009_k2"},
	{"sim.engine_only_events_per_s", "events/s", "higher", "the ceiling the measurement layer pulls msgs_per_s down from"},
	{"sim.spread_scan_ns_per_call", "ns/call", "lower", "direct; op_ms_p50 on flat_n101_seq, twotier_n529_seq"},
	{"sim.shard_windows", "count", "lower", "exact; flat_n1009_k2 only"},
	{"sim.shard_barriers", "count", "lower", "exact; msgs_per_s on flat_n1009_k2 only"},
	{"sim.shard_batched_windows", "count", "higher", "exact; flat_n1009_k2 only"},
	{"sim.shard_speedup_per_core", "ratio", "higher", "msgs_per_s on flat_n1009_k2 only"},
	{"core.receive_calls_per_op", "count", "lower", "exact; one per event delivered to a nonfaulty flat process"},
	{"core.receive_self_ns_per_call", "ns/call", "lower", "msgs_per_s on flat_n1009_k2, flat_n7_faulty; holds the engine's route+enqueue and timer push"},
	{"faults.receive_self_ns_per_call", "ns/call", "lower", "op_ms_p50 on flat_n7_faulty only"},
	{"hier.build_ms", "ms", "lower", "set-up-like share of op_ms_p50 on twotier_n529_seq"},
	{"hier.receive_self_ns_per_call", "ns/call", "lower", "op_ms_p50 on twotier_n529_seq"},
	{"hier.traffic_share_vs_flat", "ratio", "lower", "exact; rounds_per_s on twotier_n529_seq"},
	{"multiset.midpoint_select_ns_per_call.n7", "ns/call", "lower", "direct; invisible end to end"},
	{"multiset.midpoint_select_ns_per_call.n101", "ns/call", "lower", "direct; invisible end to end"},
	{"multiset.midpoint_select_ns_per_call.n1009", "ns/call", "lower", "direct; at most its share of core.receive_self on flat_n1009_k2"},
	{"metrics.sample_calls_per_event", "count", "lower", "exact; 2 per event sequential, 1 per window cut sharded"},
	{"metrics.sample_ns_per_event", "ns/event", "lower", "op_ms_p50 and msgs_per_s on flat_n101_seq, twotier_n529_seq; no change on flat_n1009_k2"},
	{"metrics.annotation_ns_per_event", "ns/event", "lower", "op_ms_p50 on flat_n7_faulty (one round per 60 events)"},
	{"invariant.check_ns_per_event", "ns/event", "lower", "op_ms_p50 on twotier_n529_seq and scenario_corpus"},
	{"metrics.share_of_run", "ratio", "lower", "op_ms_p50 on flat_n101_seq, twotier_n529_seq (expected ≥ 0.7); ≈ 0 on flat_n1009_k2"},
	{"scenario.parse_ms_per_doc", "ms", "lower", "op_ms_p50 on scenario_corpus only"},
	{"scenario.run_ms_per_doc", "ms", "lower", "op_ms_p50 on scenario_corpus only"},
	{"scenario.table_ms_per_doc", "ms", "lower", "op_ms_p50 on scenario_corpus only"},
	{"scenario.timeline_actions_per_op", "count", "lower", "exact; scenario_corpus only"},
	{"exp.e19_s", "s", "lower", "op_ms_p50 on experiment_suite"},
	{"exp.e20_s", "s", "lower", "op_ms_p50 on experiment_suite"},
	{"exp.e01_e18_s", "s", "lower", "op_ms_p50 on experiment_suite"},
	{"exp.render_ms", "ms", "lower", "op_ms_p50 on experiment_suite"},
	{"exp.runner_map_ns_per_task", "ns/task", "lower", "direct; op_ms_p50 on experiment_suite (~20k small runs)"},
	{"exp.run_overhead_ms", "ms", "lower", "op_ms_p50 on flat_n7_faulty and scenario_corpus; a fixed cost on the larger flat workloads"},
	{"clocksync.new_us", "us", "lower", "direct; op_ms_p50 on flat_n7_faulty"},
	{"clocksync.facade_overhead_ms", "ms", "lower", "op_ms_p50 on flat_n7_faulty"},
	{"go.gc_cycles_per_op", "count", "lower", "op_ms_p90 on flat_n7_faulty, op_ms_p50 on flat_n1009_k2"},
	{"go.gc_pause_ms_per_op", "ms", "lower", "op_ms_p90 on flat_n7_faulty, op_ms_p50 on flat_n1009_k2"},
	{"trace.timer_ns", "ns", "lower", "the cost of one empty span, taken out of self times per call"},
	{"trace.overhead_ratio", "ratio", "lower", "traced ÷ untraced op time; how far the traced numbers sit from the real run"},
	{"trace.unaccounted_share", "ratio", "lower", "share of the op span outside build and sim.run; the ledger is rejected above 0.05"},
}

// ledger collects per-layer readings; a metric read several times (once per
// traced op) reports its median.
type ledger struct {
	vals map[string][]float64
}

func newLedger() *ledger { return &ledger{vals: map[string][]float64{}} }

func (l *ledger) add(name string, v float64) {
	for _, d := range layerMetrics {
		if d.name == name {
			l.vals[name] = append(l.vals[name], v)
			return
		}
	}
	panic("benchmark: layer metric " + name + " is not in layerMetrics")
}

func (l *ledger) metrics() []metric {
	out := make([]metric, 0, len(layerMetrics))
	for _, d := range layerMetrics {
		m := metric{Name: d.name, Unit: d.unit, Samples: len(l.vals[d.name])}
		if m.Samples > 0 {
			m.Value = median(l.vals[d.name])
		}
		out = append(out, m)
	}
	return out
}

// tracedInstance is a workload's instrumented twin.
type tracedInstance struct {
	// op runs the instrumented op i, books its per-op layer metrics and
	// returns its outcome for the replica check.
	op func(i int, l *ledger) (opResult, *opTrace, error)
	// direct, when non-nil, takes the measurements made once per pass.
	direct func(l *ledger) error
}

// finishOp closes a facade replica's trace: records op and build, settles
// self times and books the sim/core/metrics rows read from the spans.
func finishOp(t *opTrace, tr tracer, start stamp, sys *system, d *driven, n int, l *ledger) {
	t.coarse("op", "", nsSince(start))
	t.coarse("build", "op", float64(d.runStart-start)-d.decorNs)
	if sys.hierBuildNs > 0 {
		t.coarse("hier.build", "build", sys.hierBuildNs)
		l.add("hier.build_ms", sys.hierBuildNs/1e6)
	}
	settle(t.spans, tr)

	events := t.counts["events"]
	l.add("sim.events_per_op", events)
	l.add("sim.queue_peak", t.counts["queue_peak"])
	simNew, _, _, _ := t.span("sim.new")
	l.add("sim.new_ms", simNew/1e6)
	runTotal, runSelf, _, _ := t.span("sim.run")
	l.add("sim.run_self_ns_per_event", runSelf/events)
	if _, self, _, units := t.span("delay.sample"); units > 0 {
		l.add("sim.delay_sample_ns_per_msg", self/float64(units))
	}
	for _, layer := range []string{"core", "faults", "hier"} {
		if _, self, calls, _ := t.span(layer + ".receive"); calls > 0 {
			l.add(layer+".receive_self_ns_per_call", self/float64(calls))
			if layer == "core" {
				l.add("core.receive_calls_per_op", float64(calls))
			}
		}
	}
	if sys.honest == "hier.receive" && d.res.rounds > 0 {
		l.add("hier.traffic_share_vs_flat", float64(d.res.msgs)/float64(d.res.rounds)/float64(n*n))
	}
	_, mSample, _, _ := t.span("metrics.sample")
	_, mAnnot, _, _ := t.span("metrics.annotation")
	_, iSample, _, _ := t.span("invariant.sample")
	_, iAnnot, _, _ := t.span("invariant.annotation")
	l.add("metrics.sample_calls_per_event", t.counts["sample_fanouts"]/events)
	l.add("metrics.sample_ns_per_event", mSample/events)
	if mAnnot > 0 {
		l.add("metrics.annotation_ns_per_event", mAnnot/events)
	}
	if iSample+iAnnot > 0 {
		l.add("invariant.check_ns_per_event", (iSample+iAnnot)/events)
	}
	// Observer time over the run's CPU time net of the timing's own cost.
	cpuNs := runTotal*float64(max(sys.shards, 1)) - t.timerNs(tr)
	l.add("metrics.share_of_run", (mSample+mAnnot+iSample+iAnnot)/cpuNs)
	for _, c := range []string{"shard_windows", "shard_barriers", "shard_batched_windows"} {
		if v, ok := t.counts[c]; ok {
			l.add("sim."+c, v)
		}
	}
	opTotal, _, _, _ := t.span("op")
	buildTotal, _, _, _ := t.span("build")
	l.add("trace.unaccounted_share", (opTotal-buildTotal-runTotal)/opTotal)
}

// engineOnly books the rows taken once per pass on a facade workload's
// system: the same sim.Config with no observers, and the uncached spread scan
// at the workload's n.
func engineOnly(build func(shards int) (*system, error), shards int, l *ledger) error {
	sys, err := build(shards)
	if err != nil {
		return err
	}
	d, err := sys.drive(nil, false)
	if err != nil {
		return err
	}
	l.add("sim.engine_only_events_per_s", float64(d.events)/(d.runNs/1e9))
	const scans = 2000
	t := now()
	for i := 1; i <= scans; i++ {
		// Any time but the engine's own is never served from its cache.
		d.eng.LocalTimeSpread(d.eng.Now() + 1)
	}
	l.add("sim.spread_scan_ns_per_call", nsSince(t)/scans)
	if shards > 1 {
		seq, err := build(1)
		if err != nil {
			return err
		}
		ds, err := seq.drive(nil, false)
		if err != nil {
			return err
		}
		l.add("sim.shard_speedup_per_core", ds.runNs/d.runNs/float64(shards))
	}
	return nil
}

func directNew(fc facade, seed int64, l *ledger) error {
	const calls = 200
	t := now()
	for i := 0; i < calls; i++ {
		if _, err := fc.cluster(seed); err != nil {
			return err
		}
	}
	l.add("clocksync.new_us", nsSince(t)/calls/1e3)
	return nil
}

// flatTrace is the instrumented twin of a flat facade workload.
func flatTrace(fc facade) func(string, int64, tracer) (*tracedInstance, error) {
	return func(_ string, seed int64, tr tracer) (*tracedInstance, error) {
		c, err := fc.cluster(seed)
		if err != nil {
			return nil, err
		}
		spec := flatSpec{cfg: core.Config{Params: c.Params()}, rounds: fc.rounds, shards: fc.shards, faults: fc.faults}
		return &tracedInstance{
			op: func(i int, l *ledger) (opResult, *opTrace, error) {
				s := runner.DeriveSeed(seed, i)
				// What the facade adds: Cluster.Run against exp.Run on the
				// same workload and seed, both untraced, the order swapped
				// every op so that going second favours neither.
				w, err := spec.workload(s)
				if err != nil {
					return opResult{}, nil, err
				}
				var facadeNs, harnessNs float64
				timeFacade := func() {
					t := now()
					fc.run(s)
					facadeNs = nsSince(t)
				}
				if i%2 == 0 {
					timeFacade()
				}
				t0 := now()
				if _, err := exp.Run(w); err != nil {
					return opResult{}, nil, err
				}
				harnessNs = nsSince(t0)
				if i%2 != 0 {
					timeFacade()
				}
				l.add("clocksync.facade_overhead_ms", (facadeNs-harnessNs)/1e6)

				t := newOpTrace(i)
				t0 = now()
				sys, err := buildFlat(spec, s)
				if err != nil {
					return opResult{}, nil, err
				}
				d, err := sys.drive(t, true)
				if err != nil {
					return opResult{}, nil, err
				}
				finishOp(t, tr, t0, sys, d, fc.n, l)
				// Everything exp.Run does besides Engine.Run, read from the
				// replica's build span: taking it as exp.Run's wall minus the
				// run would bury ~0.1 ms under the run's own noise.
				build, _, _, _ := t.span("build")
				l.add("exp.run_overhead_ms", build/1e6)
				return d.res, t, nil
			},
			direct: func(l *ledger) error {
				s := runner.DeriveSeed(seed, 0)
				err := engineOnly(func(k int) (*system, error) {
					sp := spec
					sp.shards = k
					return buildFlat(sp, s)
				}, fc.shards, l)
				if err != nil {
					return err
				}
				return directNew(fc, s, l)
			},
		}, nil
	}
}

// twoTierTrace is the instrumented twin of the two-tier facade workload.
func twoTierTrace(fc facade) func(string, int64, tracer) (*tracedInstance, error) {
	return func(_ string, seed int64, tr tracer) (*tracedInstance, error) {
		c, err := fc.cluster(seed)
		if err != nil {
			return nil, err
		}
		p := c.Params() // the replica inherits the facade's ρ, P and T⁰
		return &tracedInstance{
			op: func(i int, l *ledger) (opResult, *opTrace, error) {
				t := newOpTrace(i)
				t0 := now()
				sys, err := buildTwoTier(fc, p, runner.DeriveSeed(seed, i))
				if err != nil {
					return opResult{}, nil, err
				}
				d, err := sys.drive(t, true)
				if err != nil {
					return opResult{}, nil, err
				}
				finishOp(t, tr, t0, sys, d, fc.n, l)
				return d.res, t, nil
			},
			direct: func(l *ledger) error {
				s := runner.DeriveSeed(seed, 0)
				err := engineOnly(func(int) (*system, error) { return buildTwoTier(fc, p, s) }, 1, l)
				if err != nil {
					return err
				}
				return directNew(fc, s, l)
			},
		}, nil
	}
}

// scenarioTrace traces the corpus at its public calls only — Parse (with
// validation), Run, Table — since scenario.Run assembles its own system. The
// invariant suite's cost is read once per pass from a fault-free flat
// replica of each document's topology with the suite decorated.
func scenarioTrace(root string, _ int64, tr tracer) (*tracedInstance, error) {
	docs, err := loadCorpus(root)
	if err != nil {
		return nil, err
	}
	var parsed []*scenario.Scenario
	actions := 0
	for _, d := range docs {
		s, err := scenario.Parse(d.data)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, s)
		actions += len(s.Events)
	}
	return &tracedInstance{
		op: func(i int, l *ledger) (opResult, *opTrace, error) {
			t := newOpTrace(i)
			var r opResult
			var out bytes.Buffer
			t0 := now()
			for _, d := range docs {
				runScenario(d, &out, &r, t.publicCall)
			}
			t.coarse("op", "", nsSince(t0))
			r.table = out.Bytes()
			settle(t.spans, tr)
			for _, name := range []string{"parse", "run", "table"} {
				total, _, calls, _ := t.span("scenario." + name)
				l.add("scenario."+name+"_ms_per_doc", total/float64(calls)/1e6)
			}
			l.add("scenario.timeline_actions_per_op", float64(actions))
			total, self, _, _ := t.span("op")
			l.add("trace.unaccounted_share", self/total)
			return r, t, nil
		},
		direct: func(l *ledger) error {
			for _, s := range parsed {
				cfg := core.Config{Params: analysis.Default(s.Topology.N, s.Topology.F)}
				if cfg.Validate() != nil {
					continue // a sharpness scenario outside A2 has no fault-free replica
				}
				rounds := s.Rounds
				if rounds == 0 {
					rounds = 12
				}
				sys, err := buildFlat(flatSpec{cfg: cfg, rounds: rounds, suite: true}, 1)
				if err != nil {
					return err
				}
				t := newOpTrace(0)
				if _, err := sys.drive(t, true); err != nil {
					return err
				}
				settle(t.spans, tr)
				_, sample, _, _ := t.span("invariant.sample")
				_, annot, _, _ := t.span("invariant.annotation")
				l.add("invariant.check_ns_per_event", (sample+annot)/t.counts["events"])
			}
			return nil
		},
	}, nil
}

// experimentTrace traces the suite at its public calls: each experiment's
// Run and the rendering of its tables.
func experimentTrace(root string, _ int64, tr tracer) (*tracedInstance, error) {
	goldens, err := loadExperimentGoldens(root)
	if err != nil {
		return nil, err
	}
	return &tracedInstance{
		op: func(i int, l *ledger) (opResult, *opTrace, error) {
			t := newOpTrace(i)
			var r opResult
			var out bytes.Buffer
			t0 := now()
			for _, e := range exp.All() {
				runExperiment(e, goldens[e.ID], &out, &r, t.publicCall)
			}
			t.coarse("op", "", nsSince(t0))
			r.table = out.Bytes()
			settle(t.spans, tr)
			light := 0.0
			for _, e := range exp.All() {
				total, _, _, _ := t.span("exp." + e.ID)
				switch e.ID {
				case "E19":
					l.add("exp.e19_s", total/1e9)
				case "E20":
					l.add("exp.e20_s", total/1e9)
				default:
					light += total
				}
			}
			l.add("exp.e01_e18_s", light/1e9)
			render, _, _, _ := t.span("exp.render")
			l.add("exp.render_ms", render/1e6)
			total, self, _, _ := t.span("op")
			l.add("trace.unaccounted_share", self/total)
			return r, t, nil
		},
	}, nil
}

// directCommon takes the measurements that do not depend on the workload:
// the fault-tolerant midpoint at the three benchmarked sizes and the sweep
// pool's cost per task, on inputs generated from the seed.
func directCommon(seed int64, l *ledger) error {
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{7, 101, 1009} {
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.Float64()
		}
		scratch := make([]float64, n)
		calls := 2_000_000 / n
		// MidpointSelect reorders its input, so every call gets a fresh copy;
		// the copies alone are timed and taken out.
		t := now()
		for i := 0; i < calls; i++ {
			copy(scratch, src)
			if _, err := multiset.MidpointSelect(scratch, (n-1)/3); err != nil {
				return err
			}
		}
		withCopy := nsSince(t)
		t = now()
		for i := 0; i < calls; i++ {
			copy(scratch, src)
		}
		l.add(fmt.Sprintf("multiset.midpoint_select_ns_per_call.n%d", n), (withCopy-nsSince(t))/float64(calls))
	}
	const tasks = 10_000
	for rep := 0; rep < 5; rep++ {
		t := now()
		if _, err := runner.Map(0, tasks, func(int) (struct{}, error) { return struct{}{}, nil }); err != nil {
			return err
		}
		l.add("exp.runner_map_ns_per_task", nsSince(t)/tasks)
	}
	return nil
}

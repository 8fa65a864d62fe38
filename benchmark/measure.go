package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// metricDef is an end-to-end metric: what a user of the system would see.
// bound is the share of the baseline's median by which it may get worse
// before a change counts as a regression; exact metrics are simulated
// statistics and must repeat exactly instead.
type metricDef struct {
	name, unit, better string
	bound              float64
	exact              bool
	// everywhere marks the metrics every workload defines. Those are the
	// ones BENCHMARK.json registers; the rest are reported only on the
	// workloads that define them (omitted elsewhere, never zero).
	everywhere bool
}

// The bounds are three times the run-to-run spread seen on the host the
// benchmark was defined on (README.md, "Steadiness"). Host time there drifts
// by ±8 % over tens of seconds — block medians of a five-minute run spread
// as widely at 30 s blocks as at 5 s — so measuring more ops per run does
// not narrow it; allocation counts vary only with the seed.
const (
	hostTimeBound = 0.25
	allocBound    = 0.03
)

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: hostTimeBound, everywhere: true},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: hostTimeBound, everywhere: true},
	{name: "op_ms_p90", unit: "ms", better: "lower", bound: hostTimeBound},
	{name: "msgs_per_s", unit: "msgs/s", better: "higher", bound: hostTimeBound},
	{name: "rounds_per_s", unit: "rounds/s", better: "higher", bound: hostTimeBound},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: allocBound, everywhere: true},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: allocBound, everywhere: true},
	{name: "msgs_per_round", unit: "count", better: "lower", exact: true},
	{name: "steady_skew_over_gamma", unit: "ratio", better: "lower", exact: true},
	{name: "failed_op_share", unit: "ratio", better: "lower", exact: true},
}

// metric is one reported value.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is one pass over one workload.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Seconds   float64  `json:"seconds"`
	Ops       int      `json:"ops"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	SetupReps int      `json:"setup_reps,omitempty"`
	WallS     float64  `json:"wall_s"`
	Digest    string   `json:"result_digest,omitempty"`
	DigestOps int      `json:"digest_ops,omitempty"`
	Metrics   []metric `json:"metrics"`
	Failures  []string `json:"failures,omitempty"`
	Host      hostInfo `json:"host"`

	spans []spanRecord
}

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) add(name string, v float64, samples int) {
	for _, d := range endToEnd {
		if d.name == name {
			r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: d.unit, Samples: samples})
			return
		}
	}
	panic("benchmark: end-to-end metric " + name + " is not in endToEnd")
}

type runConfig struct {
	root    string
	seed    int64
	seconds float64
	host    hostInfo
}

// sameOutcome is the replay check: two ops on the same seed must agree on
// every simulated quantity, bit for bit.
func sameOutcome(a, b opResult) bool {
	da, db := newDigest(), newDigest()
	da.add(a)
	db.add(b)
	return da.sum() == db.sum() && a.failure == b.failure
}

// measurePass is the untraced pass: set-up (repeated for its median), then
// ops one at a time until the time box closes.
func measurePass(w workload, cfg runConfig) (*runResult, error) {
	passStart := now()
	res := &runResult{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Correct: true,
		SetupReps: w.setupReps, DigestOps: w.minOps, Host: cfg.host,
	}

	// Set-up: read the inputs, build what the ops need, run the warm-up op.
	var inst *instance
	var warm opResult
	setups := make([]float64, 0, w.setupReps)
	for rep := 0; rep < w.setupReps; rep++ {
		t := now()
		var err error
		if inst, err = w.setup(cfg.root, cfg.seed); err != nil {
			return nil, err
		}
		warm = inst.warmUp()
		setups = append(setups, nsSince(t)/1e9)
	}
	if warm.failure != "" {
		res.fail("warm-up op: %s", warm.failure)
	}

	var (
		ms, mallocs, mbytes []float64
		first               opResult
		dig                 = newDigest()
		msgs, rounds        int64
		m0, m1              runtime.MemStats
	)
	loop := now()
	for i := 0; i < w.minOps || nsSince(loop)/1e9 < cfg.seconds; i++ {
		runtime.ReadMemStats(&m0)
		t := now()
		r := inst.op(i)
		ms = append(ms, nsSince(t)/1e6)
		runtime.ReadMemStats(&m1)
		mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
		mbytes = append(mbytes, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		if r.failure != "" {
			res.Failed++
			res.fail("op %d: %s", i, r.failure)
		}
		if i == 0 {
			first = r
		}
		if i < w.minOps {
			dig.add(r)
		}
		msgs += r.msgs
		rounds += int64(r.rounds)
	}
	res.Ops = len(ms)
	res.Digest = fmt.Sprintf("%016x", dig.sum())
	if inst.warm == nil && !sameOutcome(warm, first) {
		res.fail("op 0 did not reproduce the warm-up op on the same seed")
	}

	var total float64
	for _, v := range ms {
		total += v
	}
	res.add("setup_s", median(setups), len(setups))
	res.add("op_ms_p50", median(ms), len(ms))
	if hasTail(len(ms), 0.9) {
		res.add("op_ms_p90", percentile(ms, 0.9), len(ms))
	}
	if msgs > 0 {
		res.add("msgs_per_s", float64(msgs)/(total/1e3), len(ms))
	}
	if first.gamma > 0 {
		res.add("rounds_per_s", float64(rounds)/(total/1e3), len(ms))
	}
	res.add("allocs_per_op", median(mallocs), len(ms))
	res.add("alloc_mb_per_op", median(mbytes), len(ms))
	if first.gamma > 0 && first.rounds > 0 {
		res.add("msgs_per_round", float64(first.msgs)/float64(first.rounds), 1)
		res.add("steady_skew_over_gamma", first.steadySkew/first.gamma, 1)
	}
	res.add("failed_op_share", float64(res.Failed)/float64(res.Ops), res.Ops)
	res.WallS = nsSince(passStart) / 1e9
	return res, nil
}

// tracePass is the per-layer pass. It alternates an untraced reference op
// with the instrumented op on the same seed — for about half the time box in
// all, so a quarter of the untraced pass's ops are traced, and at least two —
// checks each replica against its reference, and then takes the
// measurements made once per pass.
func tracePass(w workload, cfg runConfig) (*runResult, error) {
	passStart := now()
	res := &runResult{Workload: w.name, Seed: cfg.seed, Trace: true, Seconds: cfg.seconds, Correct: true, Host: cfg.host}
	inst, err := w.setup(cfg.root, cfg.seed)
	if err != nil {
		return nil, err
	}
	inst.warmUp()
	tr := calibrate()
	tinst, err := w.traced(cfg.root, cfg.seed, tr)
	if err != nil {
		return nil, err
	}

	l := newLedger()
	var refMs, tracedMs []float64
	var m0, m1 runtime.MemStats
	loop := now()
	for i := 0; i < 2 || nsSince(loop)/1e9 < cfg.seconds/2; i++ {
		runtime.ReadMemStats(&m0)
		t := now()
		ref := inst.op(i)
		refMs = append(refMs, nsSince(t)/1e6)
		runtime.ReadMemStats(&m1)
		l.add("go.gc_cycles_per_op", float64(m1.NumGC-m0.NumGC))
		l.add("go.gc_pause_ms_per_op", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
		if ref.failure != "" {
			res.Failed++
			res.fail("op %d: %s", i, ref.failure)
		}

		got, trace, err := tinst.op(i, l)
		if err != nil {
			return nil, fmt.Errorf("%s: traced op %d: %w", w.name, i, err)
		}
		opNs, _, _, _ := trace.span("op")
		tracedMs = append(tracedMs, opNs/1e6)
		res.spans = append(res.spans, trace.spans...)
		if got.rounds != ref.rounds || got.msgs != ref.msgs || got.steadySkew != ref.steadySkew {
			res.fail("op %d: traced replica (rounds %d, msgs %d, steady skew %v) does not match the facade op (rounds %d, msgs %d, steady skew %v): traced row invalid",
				i, got.rounds, got.msgs, got.steadySkew, ref.rounds, ref.msgs, ref.steadySkew)
		}
	}
	res.Ops = len(refMs)
	l.add("trace.timer_ns", tr.cost)
	l.add("trace.overhead_ratio", median(tracedMs)/median(refMs))
	if tinst.direct != nil {
		if err := tinst.direct(l); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	if err := directCommon(cfg.seed, l); err != nil {
		return nil, err
	}
	res.Metrics = l.metrics()
	for _, m := range res.Metrics {
		if m.Name == "trace.unaccounted_share" && m.Value > 0.05 {
			res.fail("ledger does not account for the run: %.1f%% of the op span lies outside its child spans", 100*m.Value)
		}
	}
	res.WallS = nsSince(passStart) / 1e9
	return res, nil
}

// print writes the human-readable block, then the one-line JSON object the
// benchmark contract reads: exactly the registered metrics of this pass.
func (r *runResult) print(w io.Writer) error {
	pass := "end-to-end pass"
	if r.Trace {
		pass = "traced per-layer pass"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s: %d ops, closed loop, 1 client, %.2f s wall\n", r.Workload, r.Seed, pass, r.Ops, r.WallS)
	notes := map[string]string{}
	receiveNote := false
	for _, d := range layerMetrics {
		notes[d.name] = "→ " + d.moves
	}
	for _, m := range r.Metrics {
		if r.Trace && m.Samples == 0 {
			continue // not on this workload's path; the contract line below still carries it as 0
		}
		fmt.Fprintf(w, "  %-44s %14.6g %-9s n=%-5d %s\n", m.Name, m.Value, m.Unit, m.Samples, notes[m.Name])
		if strings.HasSuffix(m.Name, ".receive_self_ns_per_call") {
			receiveNote = true
		}
	}
	if receiveNote {
		fmt.Fprintf(w, "  note: receive_self is Receive minus nested delay sampling and annotation sinks; it still holds the engine's Broadcast route+enqueue and SetTimer push reached through Context\n")
	}
	if !r.Trace {
		fmt.Fprintf(w, "  %-44s %s (first %d ops)\n", "result_digest", r.Digest, r.DigestOps)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}

	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.Correct, r.Ops, r.Failed, map[string]map[string]any{}}
	registered := map[string]bool{}
	for _, d := range endToEnd {
		registered[d.name] = d.everywhere
	}
	for _, m := range r.Metrics {
		if r.Trace || registered[m.Name] {
			line.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("%s: a metric is not a finite number: %w", r.Workload, err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

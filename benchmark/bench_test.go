package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	clocksync "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exp/runner"
	"repro/internal/hier"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestPercentileAndTailRule(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	// A tail percentile needs ten samples beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{99, 0.9, false}, {100, 0.9, true}, {999, 0.99, false}, {1000, 0.99, true}, {6, 0.9, false}} {
		if got := hasTail(c.n, c.p); got != c.want {
			t.Errorf("hasTail(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the exclusive method against values computed
// with statistics.quantiles(vals, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSettleSubtractsChildrenAndTimer(t *testing.T) {
	tr := tracer{read: 10, cost: 30}
	spans := []spanRecord{
		{Name: "sim.run", Parent: "op", Calls: 1, TotalNs: 10_000, Parallel: 2},
		{Name: "core.receive", Parent: "sim.run", Calls: 100, TotalNs: 6_000, Timed: true},
		{Name: "delay.sample", Parent: "core.receive", Calls: 50, TotalNs: 1_000, Timed: true},
		{Name: "metrics.sample", Parent: "sim.run", Calls: 10, TotalNs: 500, Timed: true},
		{Op: 1, Name: "metrics.sample", Parent: "sim.run", Calls: 10, TotalNs: 99, Timed: true}, // another op's span
	}
	settle(spans, tr)
	want := []float64{
		// Two goroutines' worth of wall, minus each child's total and the
		// 20 ns per child call that the child's own reading does not hold.
		2*10_000 - (6_000 + 20*100) - (500 + 20*10),
		// Its own 10 ns of reading per call, then the nested delay sampling.
		6_000 - 10*100 - (1_000 + 20*50),
		1_000 - 10*50,
		500 - 10*10,
		99 - 10*10,
	}
	for i, w := range want {
		if spans[i].SelfNs != w {
			t.Errorf("%s self = %v, want %v", spans[i].Name, spans[i].SelfNs, w)
		}
	}
	ot := &opTrace{spans: spans[:4]}
	if got := ot.timerNs(tr); got != 30*160 {
		t.Errorf("timerNs = %v, want %v", got, 30*160)
	}
}

func TestDigestStability(t *testing.T) {
	a := opResult{rounds: 5, msgs: 210, lost: 1, maxSkew: 1e-3, steadySkew: 5e-4, maxAdj: 2e-4}
	sum := func(rs ...opResult) uint64 {
		d := newDigest()
		for _, r := range rs {
			d.add(r)
		}
		return d.sum()
	}
	if sum(a, a) != sum(a, a) {
		t.Fatal("digest of the same ops differs")
	}
	b := a
	b.steadySkew = math.Nextafter(a.steadySkew, 1)
	if sum(a) == sum(b) {
		t.Error("digest ignores the last bit of the steady skew")
	}
	if sum(opResult{table: []byte("x")}) == sum(opResult{table: []byte("y")}) {
		t.Error("digest ignores the table bytes")
	}
	// Pinned: a change to the digest itself must be deliberate.
	if got := sum(a); got != 0x7843956558cb35ed {
		t.Errorf("digest of the reference op = %#x", got)
	}
}

func TestDecoratorsPreserveInterfaces(t *testing.T) {
	var a acc
	accs := make([]acc, 1)

	batched := decorateDelay(sim.UniformDelay{Delta: 1e-2, Eps: 1e-3}, accs)
	if _, ok := batched.(sim.BatchDelayModel); !ok {
		t.Error("a decorated UniformDelay is no longer a BatchDelayModel")
	}
	perCopy := decorateDelay(hier.NewClusteredDelay(hier.Default(16, 4)), accs)
	if _, ok := perCopy.(sim.BatchDelayModel); ok {
		t.Error("a decorated ClusteredDelay became a BatchDelayModel")
	}

	cfg := core.Config{Params: mustParams(t, flatN7)}
	proc := decorateProc(core.NewProc(cfg, 0.25), &a)
	if h, ok := proc.(sim.CorrHolder); !ok || h.Corr() != 0.25 {
		t.Error("a decorated *core.Proc does not forward Corr")
	}
	silent, err := flatSpec{cfg: cfg, faults: map[int]clocksync.FaultKind{0: clocksync.FaultSilent}}.faultBuilders()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decorateProc(silent[0](), &a).(sim.CorrHolder); ok {
		t.Error("a decorated faults.Silent became a CorrHolder")
	}

	sampler, err := decorateObserver(&metrics.SkewRecorder{}, &a, &a)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sampler.(sim.Sampler); !ok {
		t.Error("a decorated sampler is not a Sampler")
	}
	if _, ok := sampler.(sim.AnnotationSink); ok {
		t.Error("a decorated sampler became an AnnotationSink")
	}
	sink, err := decorateObserver(metrics.NewDefaultRoundRecorder(), &a, &a)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sink.(sim.Sampler); ok {
		t.Error("a decorated annotation sink became a Sampler")
	}
	if _, err := decorateObserver(sim.NewTracer(10), &a, &a); err == nil {
		t.Error("a per-delivery observer was decorated")
	}
}

func mustParams(t *testing.T, fc facade) analysis.Params {
	t.Helper()
	c, err := fc.cluster(1)
	if err != nil {
		t.Fatal(err)
	}
	return c.Params()
}

// TestReplicaEqualsFacade is the traced pass's validity check at tiny sizes:
// the decorated replica must replay the facade's execution exactly, on both
// engines and both topologies.
func TestReplicaEqualsFacade(t *testing.T) {
	small := flatN7
	small.rounds = 5
	sharded := facade{n: 40, f: 13, rounds: 3, shards: 2}
	tiers := facade{n: 16, f: 0, rounds: 6, twoTier: true}
	tr := calibrate()
	for _, c := range []struct {
		name   string
		fc     facade
		traced func(string, int64, tracer) (*tracedInstance, error)
	}{
		{"flat n=7 faulty", small, flatTrace(small)},
		{"flat n=40 k=2", sharded, flatTrace(sharded)},
		{"two-tier n=16", tiers, twoTierTrace(tiers)},
	} {
		t.Run(c.name, func(t *testing.T) {
			ti, err := c.traced("", 3, tr)
			if err != nil {
				t.Fatal(err)
			}
			l := newLedger()
			got, trace, err := ti.op(0, l)
			if err != nil {
				t.Fatal(err)
			}
			want := c.fc.run(runner.DeriveSeed(3, 0))
			if want.failure != "" {
				t.Fatalf("facade op failed: %s", want.failure)
			}
			if !sameOutcome(got, want) {
				t.Errorf("replica %+v\nfacade  %+v", got, want)
			}
			if err := ti.direct(l); err != nil {
				t.Fatal(err)
			}
			for _, m := range l.metrics() {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", m.Name, m.Value)
				}
			}
			if total, _, _, _ := trace.span("sim.run"); total <= 0 {
				t.Error("no sim.run span recorded")
			}
		})
	}
}

// TestContractLine runs the cheapest workload through both passes and checks
// what the benchmark contract reads: the last line of standard output.
func TestContractLine(t *testing.T) {
	reg := readRegistration(t)
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		spans := filepath.Join(t.TempDir(), "spans.json")
		code := run([]string{"-root", "..", "-workload", "scenario_corpus", "-seconds", "0.05", "-trace", trace, "-trace-out", spans}, &out, &errb)
		if code != 0 {
			t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("last line is not the contract object: %v\n%s", err, lines[len(lines)-1])
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace %s: bad verdict fields in %s", trace, lines[len(lines)-1])
		}
		want := reg.EndToEnd
		if trace == "1" {
			want = reg.PerLayer
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics on the line, %d registered", trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := line.Metrics[m.Name]
			if !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s missing or in the wrong unit", trace, m.Name)
			}
		}
	}
}

type registration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []registeredMetric `json:"end_to_end"`
	PerLayer   []registeredMetric `json:"per_layer"`
}

type registeredMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readRegistration(t *testing.T) registration {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var reg registration
	if err := json.Unmarshal(b, &reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestRegistrationMatchesTables keeps BENCHMARK.json and the metric tables
// in the code from drifting apart.
func TestRegistrationMatchesTables(t *testing.T) {
	reg := readRegistration(t)
	if len(reg.Paths) != 1 || reg.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", reg.Paths)
	}
	wls := workloads()
	if len(reg.Workloads) != len(wls) {
		t.Fatalf("%d workloads registered, %d defined", len(reg.Workloads), len(wls))
	}
	for i, w := range wls {
		if reg.Workloads[i].Name != w.name || reg.Workloads[i].Why == "" || len(reg.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: registered %q, defined %q", i, reg.Workloads[i].Name, w.name)
		}
	}
	var everywhere []metricDef
	for _, d := range endToEnd {
		if d.everywhere {
			everywhere = append(everywhere, d)
		}
	}
	if len(reg.EndToEnd) != len(everywhere) {
		t.Fatalf("%d end-to-end metrics registered, %d defined on every workload", len(reg.EndToEnd), len(everywhere))
	}
	for i, d := range everywhere {
		if got := reg.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: registered %+v, defined %+v", i, got, d)
		}
	}
	if len(reg.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics registered, %d defined", len(reg.PerLayer), len(layerMetrics))
	}
	for i, d := range layerMetrics {
		if got := reg.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: registered %+v, defined %+v", i, got, d)
		}
	}
}

func TestJudge(t *testing.T) {
	timing := metricDef{name: "op_ms_p50", better: "lower", bound: 0.10}
	rate := metricDef{name: "msgs_per_s", better: "higher", bound: 0.10}
	exact := metricDef{name: "msgs_per_round", exact: true}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", timing, steady, steady, verdictOK},
		{"slower within the bound", timing, steady, []float64{108, 109, 107, 108, 108}, verdictOK},
		{"slower beyond the bound", timing, steady, []float64{115, 116, 114, 115, 115}, verdictRegression},
		{"faster is never a regression", timing, steady, []float64{50, 51, 49, 50, 50}, verdictOK},
		{"a lower rate beyond the bound", rate, steady, []float64{85, 86, 84, 85, 85}, verdictRegression},
		{"too noisy to tell", timing, steady, []float64{80, 130, 100, 90, 120}, verdictUnresolved},
		{"noisy but every run better", timing, steady, []float64{40, 80, 60, 50, 70}, verdictOK},
		{"exact and equal", exact, []float64{42, 42}, []float64{42}, verdictOK},
		{"exact and different", exact, []float64{42, 42}, []float64{42.000001}, verdictMismatch},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFiles drives -compare through result files as -o writes them:
// runs accumulate in a file, digests and exact metrics are matched per seed.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opMs []float64, digest string) string {
		path := filepath.Join(dir, name)
		for _, ms := range opMs {
			r := &runResult{Workload: "flat_n101_seq", Seed: 1, Correct: true, Digest: digest}
			r.add("op_ms_p50", ms, 30)
			r.add("msgs_per_round", 10201, 1)
			if err := appendResults(path, []*runResult{r}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.json", []float64{100, 101, 99}, "00aa")
	for _, c := range []struct {
		name string
		path string
		code int
		want string
	}{
		{"same", write("same.json", []float64{101, 100, 102}, "00aa"), 0, "0 regressions, 0 exact mismatches"},
		{"slower", write("slow.json", []float64{140, 141, 139}, "00aa"), 1, "1 regressions"},
		{"other outcome", write("other.json", []float64{100, 101, 99}, "00bb"), 1, "1 exact mismatches"},
	} {
		var out, errb bytes.Buffer
		if code := run([]string{"-compare", base, c.path}, &out, &errb); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: summary lacks %q:\n%s", c.name, c.want, out.String())
		}
	}
}

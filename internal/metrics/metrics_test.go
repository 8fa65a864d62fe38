package metrics_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// stubProc exposes a fixed correction and performs scripted actions.
type stubProc struct {
	corr    clock.Local
	onStart func(ctx *sim.Context)
}

func (s *stubProc) Receive(ctx *sim.Context, m sim.Message) {
	if m.Kind == sim.KindStart && s.onStart != nil {
		s.onStart(ctx)
	}
}

func (s *stubProc) Corr() clock.Local { return s.corr }

// buildEngine makes an engine of stub processes with the given corrections
// and all-zero start times.
func buildEngine(t *testing.T, corrs []clock.Local, faulty []bool, hook func(id int) func(*sim.Context)) *sim.Engine {
	t.Helper()
	n := len(corrs)
	procs := make([]sim.Process, n)
	clocks := make([]clock.Clock, n)
	starts := make([]clock.Real, n)
	for i := range procs {
		p := &stubProc{corr: corrs[i]}
		if hook != nil {
			p.onStart = hook(i)
		}
		procs[i] = p
		clocks[i] = clock.Linear(0, 1)
	}
	e, err := sim.New(sim.Config{
		Procs:   procs,
		Clocks:  clocks,
		StartAt: starts,
		Delay:   sim.ConstantDelay{Delta: 0.01},
		Faulty:  faulty,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNonfaultySkew(t *testing.T) {
	e := buildEngine(t, []clock.Local{0, 3, 10}, []bool{false, false, true}, nil)
	skew, ok := metrics.NonfaultySkew(e, 5)
	if !ok {
		t.Fatal("expected skew")
	}
	// Faulty process's offset 10 must be ignored: skew = 3 − 0.
	if math.Abs(skew-3) > 1e-12 {
		t.Errorf("skew = %v, want 3", skew)
	}
}

func TestNonfaultySkewNeedsTwo(t *testing.T) {
	e := buildEngine(t, []clock.Local{0, 1}, []bool{false, true}, nil)
	if _, ok := metrics.NonfaultySkew(e, 0); ok {
		t.Error("skew with a single nonfaulty process should report not-ok")
	}
}

func TestSkewRecorder(t *testing.T) {
	e := buildEngine(t, []clock.Local{0, 2, 7}, nil, nil)
	rec := &metrics.SkewRecorder{Warmup: 100, Bucket: 1}
	e.Observe(rec)
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if math.Abs(rec.Max()-7) > 1e-12 {
		t.Errorf("Max = %v, want 7", rec.Max())
	}
	// No sample at or after warmup 100 within horizon 10... except the
	// final horizon sample happens at t=10 < 100, so MaxAfterWarmup = 0.
	if rec.MaxAfterWarmup() != 0 {
		t.Errorf("MaxAfterWarmup = %v, want 0", rec.MaxAfterWarmup())
	}
	if len(rec.Series()) == 0 {
		t.Error("bucketed series missing")
	}
	for _, v := range rec.Series() {
		if v != 0 && math.Abs(v-7) > 1e-12 {
			t.Errorf("series bucket = %v, want 0 or 7", v)
		}
	}
}

func TestRoundRecorder(t *testing.T) {
	hook := func(id int) func(*sim.Context) {
		return func(ctx *sim.Context) {
			ctx.Annotate(metrics.TagRoundBegin, 0)
			ctx.Annotate(metrics.TagAdjust, float64(id+1)*1e-3)
		}
	}
	// Process 2 is faulty: its annotations must be ignored.
	e := buildEngine(t, []clock.Local{0, 1e-3, 5}, []bool{false, false, true}, hook)
	rec := metrics.NewDefaultRoundRecorder()
	e.Observe(rec)
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if rec.Rounds() != 1 {
		t.Fatalf("Rounds = %d, want 1", rec.Rounds())
	}
	// Both nonfaulty STARTs are at t=0, so β₀ = 0.
	b, ok := rec.BetaMeasured(0)
	if !ok || b != 0 {
		t.Errorf("BetaMeasured(0) = %v,%v", b, ok)
	}
	if _, ok := rec.BetaMeasured(5); ok {
		t.Error("BetaMeasured for unseen round should report not-ok")
	}
	// Adjustments: 1ms and 2ms from the two nonfaulty processes.
	if got := rec.MaxAbsAdj(0); math.Abs(got-2e-3) > 1e-12 {
		t.Errorf("MaxAbsAdj = %v, want 2ms", got)
	}
	if got := rec.MaxAbsAdj(50); got != 0 {
		t.Errorf("MaxAbsAdj(after 50) = %v, want 0", got)
	}
	if rec.Adjustments() != 2 {
		t.Errorf("Adjustments = %d, want 2", rec.Adjustments())
	}
	// Skew at the (latest) begin of round 0 is the nonfaulty skew 1ms.
	if got := rec.SkewAtBegin(0); math.Abs(got-1e-3) > 1e-12 {
		t.Errorf("SkewAtBegin = %v, want 1ms", got)
	}
	if at, ok := rec.FirstBegin(0); !ok || at != 0 {
		t.Errorf("FirstBegin(0) = %v,%v", at, ok)
	}
	if _, ok := rec.FirstBegin(5); ok {
		t.Error("FirstBegin for unseen round should report not-ok")
	}
	series := rec.BetaSeries()
	if len(series) != 1 || series[0] != 0 {
		t.Errorf("BetaSeries = %v", series)
	}
}

func TestValidityRecorder(t *testing.T) {
	// Perfect clocks with zero corrections: L_p(t) − T0 = t exactly; the
	// envelope with α=1±0.01 and α₃=0.001 holds trivially.
	e := buildEngine(t, []clock.Local{0, 0}, nil, nil)
	rec := &metrics.ValidityRecorder{
		Alpha1: 0.99, Alpha2: 1.01, Alpha3: 1e-3,
		T0: 0, TMin0: 0, TMax0: 0,
	}
	e.Observe(rec)
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if rec.Samples() == 0 {
		t.Fatal("no samples")
	}
	if rec.WorstViolation() > 0 {
		t.Errorf("violation %v on a perfect run", rec.WorstViolation())
	}
}

func TestValidityRecorderDetectsViolation(t *testing.T) {
	// A huge constant correction puts L far above the upper envelope.
	e := buildEngine(t, []clock.Local{100, 100}, nil, nil)
	rec := &metrics.ValidityRecorder{
		Alpha1: 0.99, Alpha2: 1.01, Alpha3: 1e-3,
		T0: 0, TMin0: 0, TMax0: 0,
	}
	e.Observe(rec)
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if rec.WorstViolation() < 99 {
		t.Errorf("violation = %v, want ≈ 100", rec.WorstViolation())
	}
}

func TestValidityRecorderFromFilter(t *testing.T) {
	e := buildEngine(t, []clock.Local{100, 100}, nil, nil)
	rec := &metrics.ValidityRecorder{
		Alpha1: 0.99, Alpha2: 1.01, Alpha3: 1e-3,
		From: 1e9, // beyond the horizon: nothing sampled
	}
	e.Observe(rec)
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if rec.Samples() != 0 || rec.WorstViolation() != 0 {
		t.Errorf("samples=%d violation=%v, want 0/0", rec.Samples(), rec.WorstViolation())
	}
}

// naiveRounds is the round recorder as a full log: every nonfaulty begin
// time per round, the skew at the latest begin, and every adjustment.
type naiveRounds struct {
	begins map[int][]clock.Real
	skew   map[int]float64
	adjs   []sim.Annotation
}

func (n *naiveRounds) OnAnnotation(e *sim.Engine, a sim.Annotation) {
	if e.Faulty(a.Proc) {
		return
	}
	switch a.Tag {
	case metrics.TagRoundBegin:
		if i := int(a.Value); i >= 0 {
			n.begins[i] = append(n.begins[i], a.At)
			if skew, ok := metrics.NonfaultySkew(e, a.At); ok {
				n.skew[i] = skew
			}
		}
	case metrics.TagAdjust:
		n.adjs = append(n.adjs, a)
	}
}

func (n *naiveRounds) rounds() int {
	i := 0
	for len(n.begins[i]) > 0 {
		i++
	}
	return i
}

func (n *naiveRounds) beta(i int) (float64, bool) {
	ts := n.begins[i]
	if len(ts) == 0 {
		return 0, false
	}
	lo, hi := ts[0], ts[0]
	for _, at := range ts[1:] {
		lo, hi = min(lo, at), max(hi, at)
	}
	return float64(hi - lo), true
}

func (n *naiveRounds) first(i int) (clock.Real, bool) {
	ts := slices.Clone(n.begins[i])
	slices.Sort(ts)
	if len(ts) == 0 {
		return 0, false
	}
	return ts[0], true
}

func (n *naiveRounds) maxAbsAdj(from clock.Real) float64 {
	m := 0.0
	for _, a := range n.adjs {
		if a.At < from {
			continue
		}
		if v := math.Abs(a.Value); v > m {
			m = v
		}
	}
	return m
}

// TestRoundRecorderMatchesFullLog feeds random annotation streams, in time
// order with runs of equal times, to the round recorder and to a full log:
// begins of rounds in and out of order, with gaps and negative indices, from
// nonfaulty and faulty processes, on clocks of different rates so the skew
// at each begin differs and is not monotone in time; adjustments of either sign, zero, negative zero,
// ±Inf and NaN. Every accessor must agree bit for bit, MaxAbsAdj at every
// adjustment time, between and around them, and at ±Inf and NaN.
func TestRoundRecorderMatchesFullLog(t *testing.T) {
	// Clocks that cross, so the skew falls and rises again over the
	// stream's few seconds: the skew at a round's latest begin is not its
	// largest.
	corrs := []clock.Local{4e-3, 0, 2e-3, 0, 1e-3}
	rates := []float64{1, 1.002, 1.001, 1, 0.9995}
	const n = 5
	procs := make([]sim.Process, n)
	clocks := make([]clock.Clock, n)
	for i := range procs {
		procs[i] = &stubProc{corr: corrs[i]}
		clocks[i] = clock.Linear(0, rates[i])
	}
	e, err := sim.New(sim.Config{
		Procs: procs, Clocks: clocks, StartAt: make([]clock.Real, n),
		Delay:  sim.ConstantDelay{Delta: 0.01},
		Faulty: []bool{false, false, false, true, false},
	})
	if err != nil {
		t.Fatal(err)
	}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rec := metrics.NewDefaultRoundRecorder()
		ref := &naiveRounds{begins: map[int][]clock.Real{}, skew: map[int]float64{}}
		at, round := clock.Real(rng.Float64()), 0
		var times []clock.Real
		for k := rng.Intn(300); k >= 0; k-- {
			if rng.Intn(3) > 0 { // a third of the annotations share a time
				at += clock.Real(rng.Float64() * 1e-2)
			}
			a := sim.Annotation{At: at, Proc: sim.ProcID(rng.Intn(n))}
			if rng.Intn(2) == 0 {
				a.Tag = metrics.TagRoundBegin
				if rng.Intn(8) == 0 {
					round++
				}
				a.Value = float64(round + rng.Intn(3) - 1 + 2*rng.Intn(2)*rng.Intn(2))
			} else {
				a.Tag = metrics.TagAdjust
				a.Value = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(5)-6))
				if rng.Intn(10) == 0 {
					a.Value = specials[rng.Intn(len(specials))]
				}
				times = append(times, at)
			}
			rec.OnAnnotation(e, a)
			ref.OnAnnotation(e, a)
		}

		if got, want := rec.Rounds(), ref.rounds(); got != want {
			t.Fatalf("seed %d: Rounds = %d, want %d", seed, got, want)
		}
		if got, want := rec.Adjustments(), len(ref.adjs); got != want {
			t.Fatalf("seed %d: Adjustments = %d, want %d", seed, got, want)
		}
		for i := -1; i <= round+3; i++ {
			gb, gok := rec.BetaMeasured(i)
			wb, wok := ref.beta(i)
			gf, gfok := rec.FirstBegin(i)
			wf, wfok := ref.first(i)
			if bits(gb) != bits(wb) || gok != wok || bits(float64(gf)) != bits(float64(wf)) || gfok != wfok ||
				bits(rec.SkewAtBegin(i)) != bits(ref.skew[i]) {
				t.Fatalf("seed %d round %d: beta %v,%v first %v,%v skew %v; want %v,%v %v,%v %v",
					seed, i, gb, gok, gf, gfok, rec.SkewAtBegin(i), wb, wok, wf, wfok, ref.skew[i])
			}
		}
		froms := []clock.Real{clock.Real(math.Inf(-1)), clock.Real(math.Inf(1)), clock.Real(math.NaN()), 0, at + 1}
		for i, ts := range times {
			froms = append(froms, ts, ts+1e-9, ts-1e-9)
			if i > 0 {
				froms = append(froms, (ts+times[i-1])/2)
			}
		}
		for _, from := range froms {
			if got, want := rec.MaxAbsAdj(from), ref.maxAbsAdj(from); bits(got) != bits(want) {
				t.Fatalf("seed %d: MaxAbsAdj(%v) = %v, want %v", seed, from, got, want)
			}
		}
	}
}

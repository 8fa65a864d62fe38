package clock

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearAt(t *testing.T) {
	tests := []struct {
		name   string
		offset Local
		rate   float64
		t      Real
		want   Local
	}{
		{"identity at zero", 0, 1, 0, 0},
		{"identity at ten", 0, 1, 10, 10},
		{"offset only", 5, 1, 10, 15},
		{"fast clock", 0, 1.5, 10, 15},
		{"slow clock", 0, 0.5, 10, 5},
		{"negative time", 2, 1, -3, -1},
		{"fractional", 0.5, 2, 0.25, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := Linear(tt.offset, tt.rate)
			if got := c.At(tt.t); math.Abs(float64(got-tt.want)) > 1e-12 {
				t.Errorf("At(%v) = %v, want %v", tt.t, got, tt.want)
			}
		})
	}
}

func TestLinearInvRoundTrip(t *testing.T) {
	c := Linear(3, 1.25)
	for _, tv := range []Real{-10, -1, 0, 0.5, 1, 100, 1e6} {
		T := c.At(tv)
		if got := c.Inv(T); math.Abs(float64(got-tv)) > 1e-9 {
			t.Errorf("Inv(At(%v)) = %v", tv, got)
		}
	}
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		bps     []Breakpoint
		wantErr bool
	}{
		{"empty", nil, true},
		{"single", []Breakpoint{{0, 1}}, false},
		{"zero rate", []Breakpoint{{0, 0}}, true},
		{"negative rate", []Breakpoint{{0, -1}}, true},
		{"non-increasing starts", []Breakpoint{{0, 1}, {0, 1.1}}, true},
		{"decreasing starts", []Breakpoint{{5, 1}, {2, 1.1}}, true},
		{"good pair", []Breakpoint{{0, 1}, {10, 1.1}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(0, tt.bps)
			if (err != nil) != tt.wantErr {
				t.Errorf("New err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestPiecewiseContinuity(t *testing.T) {
	c, err := New(100, []Breakpoint{{0, 1.0}, {10, 0.5}, {20, 2.0}})
	if err != nil {
		t.Fatal(err)
	}
	// Value approaching a breakpoint from the left equals value at it.
	for _, bp := range []Real{10, 20} {
		left := c.At(bp - 1e-9)
		at := c.At(bp)
		if math.Abs(float64(at-left)) > 1e-6 {
			t.Errorf("discontinuity at %v: left %v, at %v", bp, left, at)
		}
	}
	// Spot values: At(10)=110, At(20)=115, At(30)=135.
	for _, tt := range []struct {
		t    Real
		want Local
	}{{0, 100}, {10, 110}, {15, 112.5}, {20, 115}, {30, 135}, {-5, 95}} {
		if got := c.At(tt.t); math.Abs(float64(got-tt.want)) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestPiecewiseInvRoundTrip(t *testing.T) {
	c, err := New(-3, []Breakpoint{{0, 0.9}, {7, 1.2}, {9, 1.0}, {50, 1.1}})
	if err != nil {
		t.Fatal(err)
	}
	for tv := Real(-20); tv <= 100; tv += 0.37 {
		T := c.At(tv)
		if got := c.Inv(T); math.Abs(float64(got-tv)) > 1e-9 {
			t.Fatalf("Inv(At(%v)) = %v", tv, got)
		}
	}
}

func TestInvRoundTripProperty(t *testing.T) {
	// For random piecewise ρ-bounded clocks, Inv∘At is the identity and At
	// is strictly monotone.
	f := func(seed int64, probe float64) bool {
		rng := rand.New(rand.NewSource(seed))
		rho := 1e-4 + rng.Float64()*0.1
		n := 1 + rng.Intn(10)
		bps := make([]Breakpoint, n)
		start := Real(-rng.Float64() * 10)
		for i := range bps {
			bps[i] = Breakpoint{Start: start, Rate: 1/(1+rho) + rng.Float64()*(1+rho-1/(1+rho))}
			start += Real(0.1 + rng.Float64()*10)
		}
		c, err := New(Local(rng.NormFloat64()*100), bps)
		if err != nil {
			return false
		}
		if !c.RhoBounded(rho) {
			return false
		}
		tv := Real(math.Mod(probe, 1000))
		T := c.At(tv)
		back := c.Inv(T)
		if math.Abs(float64(back-tv)) > 1e-6 {
			return false
		}
		// Monotonicity across a small step.
		return c.At(tv+1e-3) > T
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLemma1 checks the paper's Lemma 1: for a ρ-bounded clock and t1 < t2,
// (t2−t1)/(1+ρ) ≤ C(t2)−C(t1) ≤ (1+ρ)(t2−t1).
func TestLemma1(t *testing.T) {
	rho := 0.02
	sched := RandomWalkDrift{RhoBound: rho, SegmentDur: 2, Horizon: 200, Seed: 42}
	c := sched.Build(0, 1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		t1 := Real(rng.Float64() * 150)
		t2 := t1 + Real(rng.Float64()*40)
		elapsed := float64(c.At(t2) - c.At(t1))
		lo := float64(t2-t1) / (1 + rho)
		hi := float64(t2-t1) * (1 + rho)
		if elapsed < lo-1e-9 || elapsed > hi+1e-9 {
			t.Fatalf("Lemma 1 violated: elapsed %v not in [%v, %v]", elapsed, lo, hi)
		}
	}
}

// TestLemma2 checks |(C(t2)−t2) − (C(t1)−t1)| ≤ ρ|t2−t1| for ρ-bounded C.
func TestLemma2(t *testing.T) {
	rho := 0.05
	sched := RandomWalkDrift{RhoBound: rho, SegmentDur: 1, Horizon: 100, Seed: 9}
	c := sched.Build(3, 4)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		t1 := Real(rng.Float64() * 80)
		t2 := Real(rng.Float64() * 80)
		lhs := math.Abs(float64((c.At(t2) - Local(t2)) - (c.At(t1) - Local(t1))))
		rhs := rho * math.Abs(float64(t2-t1))
		if lhs > rhs+1e-9 {
			t.Fatalf("Lemma 2 violated: %v > %v (t1=%v t2=%v)", lhs, rhs, t1, t2)
		}
	}
}

// TestLemma3 checks: if two inverse clocks stay within α on [T1,T2], then the
// forward clocks stay within (1+ρ)α on the corresponding real interval.
func TestLemma3(t *testing.T) {
	rho := 0.01
	c := Linear(0, 1+rho)
	d := Linear(0.5, 1/(1+rho))
	T1, T2 := Local(10), Local(60)
	// For linear clocks the inverse difference is linear in T, so its sup on
	// [T1,T2] is attained at an endpoint.
	alpha := math.Max(
		math.Abs(float64(c.Inv(T1)-d.Inv(T1))),
		math.Abs(float64(c.Inv(T2)-d.Inv(T2))))
	t1 := Real(math.Min(float64(c.Inv(T1)), float64(d.Inv(T1))))
	t2 := Real(math.Max(float64(c.Inv(T2)), float64(d.Inv(T2))))
	for tv := t1; tv <= t2; tv += 0.05 {
		diff := math.Abs(float64(c.At(tv) - d.At(tv)))
		if diff > (1+rho)*alpha+1e-9 {
			t.Fatalf("Lemma 3 violated at t=%v: |C-D| = %v > (1+ρ)α = %v", tv, diff, (1+rho)*alpha)
		}
	}
}

func TestRhoBounded(t *testing.T) {
	tests := []struct {
		name string
		rate float64
		rho  float64
		want bool
	}{
		{"perfect clock tight rho", 1.0, 1e-6, true},
		{"fast within", 1.0000009, 1e-6, true},
		{"fast outside", 1.000002, 1e-6, false},
		{"slow within", 1 / 1.0000009, 1e-6, true},
		{"slow outside", 1 / 1.000002, 1e-6, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := Linear(0, tt.rate)
			if got := c.RhoBounded(tt.rho); got != tt.want {
				t.Errorf("RhoBounded(%v) = %v, want %v", tt.rho, got, tt.want)
			}
		})
	}
}

func TestConstantDriftSpansBand(t *testing.T) {
	d := ConstantDrift{RhoBound: 0.01}
	n := 5
	lo, hi := 1/(1+d.RhoBound), 1+d.RhoBound
	first := d.Build(0, n).SegmentAt(0).Rate
	last := d.Build(n-1, n).SegmentAt(0).Rate
	if math.Abs(first-lo) > 1e-12 {
		t.Errorf("slowest rate %v, want %v", first, lo)
	}
	if math.Abs(last-hi) > 1e-12 {
		t.Errorf("fastest rate %v, want %v", last, hi)
	}
	for i := 0; i < n; i++ {
		c := d.Build(i, n)
		if !c.RhoBounded(d.RhoBound) {
			t.Errorf("process %d not ρ-bounded", i)
		}
	}
}

func TestConstantDriftSingleProcess(t *testing.T) {
	d := ConstantDrift{RhoBound: 0.01}
	c := d.Build(0, 1)
	r := c.SegmentAt(0).Rate
	if r < 1/(1+d.RhoBound) || r > 1+d.RhoBound {
		t.Errorf("single-process rate %v outside band", r)
	}
}

func TestRandomWalkDriftBoundedAndDeterministic(t *testing.T) {
	d := RandomWalkDrift{RhoBound: 1e-3, SegmentDur: 0.5, Horizon: 30, Seed: 5}
	for id := 0; id < 4; id++ {
		c := d.Build(id, 4)
		if !c.RhoBounded(d.RhoBound) {
			t.Errorf("process %d not ρ-bounded", id)
		}
		c2 := d.Build(id, 4)
		for _, tv := range []Real{0, 1, 7.7, 29} {
			if c.At(tv) != c2.At(tv) {
				t.Errorf("nondeterministic clock for id %d at %v", id, tv)
			}
		}
	}
	// Different ids should give different clocks (overwhelmingly likely).
	a := d.Build(0, 4)
	b := d.Build(1, 4)
	same := true
	for _, tv := range []Real{1, 5, 13, 29} {
		if a.At(tv) != b.At(tv) {
			same = false
		}
	}
	if same {
		t.Error("distinct process ids produced identical random clocks")
	}
}

func TestRandomWalkDriftDefaults(t *testing.T) {
	d := RandomWalkDrift{RhoBound: 1e-4}
	c := d.Build(0, 1)
	if !c.RhoBounded(d.RhoBound) {
		t.Error("defaulted random walk not ρ-bounded")
	}
	if c.Segments() < 2 {
		t.Errorf("expected multiple segments, got %d", c.Segments())
	}
}

func TestAlternatingDriftAntiphase(t *testing.T) {
	d := AlternatingDrift{RhoBound: 0.01, Period: 1, Horizon: 10}
	a := d.Build(0, 2)
	b := d.Build(1, 2)
	// At mid-period the two clocks should run at opposite extremes.
	ra, rb := a.SegmentAt(0.5).Rate, b.SegmentAt(0.5).Rate
	if ra == rb {
		t.Errorf("antiphase clocks have equal rate %v", ra)
	}
	if math.Abs(ra*rb-1) > 1e-9 {
		// extremes are 1+ρ and 1/(1+ρ), whose product is 1
		t.Errorf("rates %v and %v are not the two band extremes", ra, rb)
	}
}

func TestSpreadOffsets(t *testing.T) {
	offs := SpreadOffsets(5, 8)
	want := []Local{0, 2, 4, 6, 8}
	for i, w := range want {
		if math.Abs(float64(offs[i]-w)) > 1e-12 {
			t.Errorf("offs[%d] = %v, want %v", i, offs[i], w)
		}
	}
	if got := SpreadOffsets(1, 8); got[0] != 0 {
		t.Errorf("single offset = %v, want 0", got[0])
	}
	if got := SpreadOffsets(0, 8); len(got) != 0 {
		t.Errorf("zero offsets len = %d", len(got))
	}
}

func TestRandomOffsetsInRangeAndSeeded(t *testing.T) {
	a := RandomOffsets(10, 3, 1)
	b := RandomOffsets(10, 3, 1)
	c := RandomOffsets(10, 3, 2)
	diff := false
	for i := range a {
		if a[i] < 0 || a[i] >= 3 {
			t.Errorf("offset %v out of range", a[i])
		}
		if a[i] != b[i] {
			t.Error("same seed produced different offsets")
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical offsets")
	}
}

func TestMaxRho(t *testing.T) {
	tests := []struct {
		rate float64
		want float64
	}{
		{1.0, 0},
		{1.01, 0.01},
		{1 / 1.01, 0.01},
	}
	for _, tt := range tests {
		if got := MaxRho(tt.rate); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("MaxRho(%v) = %v, want %v", tt.rate, got, tt.want)
		}
	}
	if !math.IsInf(MaxRho(0), 1) || !math.IsInf(MaxRho(-1), 1) {
		t.Error("MaxRho of non-positive rate should be +Inf")
	}
}

func TestInvBeforeFirstSegment(t *testing.T) {
	c, err := New(10, []Breakpoint{{0, 1}, {5, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// T below the first segment's value extrapolates with the first rate.
	if got := c.Inv(5); math.Abs(float64(got-(-5))) > 1e-9 {
		t.Errorf("Inv(5) = %v, want -5", got)
	}
}

// TestSegmentAtReproducesAt pins the contract the simulation engine's clock
// table relies on: over [From, Until) the segment's expression is At, bit for
// bit, including before the first breakpoint and after the last.
func TestSegmentAtReproducesAt(t *testing.T) {
	c, err := New(0.25, []Breakpoint{{Start: 1, Rate: 1.00001}, {Start: 2.5, Rate: 0.99999}, {Start: 4, Rate: 1.000003}})
	if err != nil {
		t.Fatal(err)
	}
	for _, clk := range []*PiecewiseLinear{c, Linear(0.1, 1.00001)} {
		for x := Real(-1); x < 6; x += 0.0371 {
			s := clk.SegmentAt(x)
			if x < s.From || x >= s.Until {
				t.Fatalf("SegmentAt(%v) covers [%v, %v)", x, s.From, s.Until)
			}
			for _, y := range []Real{x, Real(math.Max(float64(s.From), -2)), Real(math.Nextafter(math.Min(float64(s.Until), 7), -1))} {
				got := s.Value + Local(s.Rate*float64(y-s.Start))
				if want := clk.At(y); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Fatalf("segment of %v at %v: %v, At %v", x, y, got, want)
				}
			}
		}
	}
}

package analysis

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	for _, nf := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}, {13, 4}, {1, 0}} {
		p := Default(nf.n, nf.f)
		if err := p.Validate(); err != nil {
			t.Errorf("Default(%d,%d) invalid: %v", nf.n, nf.f, err)
		}
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	base := Default(7, 2)
	tests := []struct {
		name   string
		mutate func(*Params)
		want   string
	}{
		{"n too small", func(p *Params) { p.N = 6 }, "A2"},
		{"negative f", func(p *Params) { p.F = -1 }, "nonnegative"},
		{"zero n", func(p *Params) { p.N = 0 }, "positive"},
		{"negative rho", func(p *Params) { p.Rho = -1e-6 }, "ρ"},
		{"negative eps", func(p *Params) { p.Eps = -1e-3 }, "ε"},
		{"delta not above eps", func(p *Params) { p.Delta = p.Eps }, "A3"},
		{"nonpositive beta", func(p *Params) { p.Beta = 0 }, "β"},
		{"P too small", func(p *Params) { p.P = 1e-3 }, "below lower bound"},
		{"P too large", func(p *Params) { p.P = 1e6 }, "above upper bound"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base
			tt.mutate(&p)
			err := p.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestWindowAndAdjBound(t *testing.T) {
	p := Params{Rho: 0.01, Delta: 10, Eps: 1, Beta: 5}
	if got, want := p.Window(), 1.01*16.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Window = %v, want %v", got, want)
	}
	if got, want := p.AdjBound(), 1.01*6+0.01*10; math.Abs(got-want) > 1e-12 {
		t.Errorf("AdjBound = %v, want %v", got, want)
	}
}

func TestPMinTakesMaxOfLemma8AndLemma12(t *testing.T) {
	// δ large: Lemma 8 dominates (window includes δ).
	pd := Params{Rho: 0, Delta: 100, Eps: 1, Beta: 2}
	lemma8 := pd.Window() + pd.AdjBound()
	if got := pd.PMin(); math.Abs(got-lemma8) > 1e-12 {
		t.Errorf("PMin = %v, want Lemma 8 value %v", got, lemma8)
	}
	// δ small relative to β+ε: Lemma 12 dominates.
	ps := Params{Rho: 0, Delta: 1.5, Eps: 1, Beta: 10}
	lemma12 := 3 * (ps.Beta + ps.Eps)
	if got := ps.PMin(); math.Abs(got-lemma12) > 1e-12 {
		t.Errorf("PMin = %v, want Lemma 12 value %v", got, lemma12)
	}
}

func TestPMaxInfiniteWithoutDrift(t *testing.T) {
	p := Params{Rho: 0, Delta: 10e-3, Eps: 1e-3, Beta: 5e-3}
	if !math.IsInf(p.PMax(), 1) {
		t.Errorf("PMax with ρ=0 = %v, want +Inf", p.PMax())
	}
}

func TestBetaFloor(t *testing.T) {
	p := Params{Rho: 1e-5, Eps: 1e-3, P: 1}
	want := 4e-3 + 4e-5
	if got := p.BetaFloor(); math.Abs(got-want) > 1e-12 {
		t.Errorf("BetaFloor = %v, want %v", got, want)
	}
}

func TestBetaFloorK(t *testing.T) {
	p := Params{Rho: 1e-5, Eps: 1e-3, P: 1}
	// k=1 must agree with the single-exchange floor 4ε+4ρP.
	if got, want := p.BetaFloorK(1), p.BetaFloor(); math.Abs(got-want) > 1e-15 {
		t.Errorf("BetaFloorK(1) = %v, want %v", got, want)
	}
	// Floor decreases with k toward 4ε+2ρP.
	limit := 4*p.Eps + 2*p.Rho*p.P
	prev := p.BetaFloorK(1)
	for k := 2; k <= 6; k++ {
		cur := p.BetaFloorK(k)
		if cur >= prev {
			t.Errorf("BetaFloorK not decreasing at k=%d: %v >= %v", k, cur, prev)
		}
		if cur < limit {
			t.Errorf("BetaFloorK(%d) = %v below the 4ε+2ρP limit %v", k, cur, limit)
		}
		prev = cur
	}
	if !math.IsInf(p.BetaFloorK(0), 1) {
		t.Error("BetaFloorK(0) should be +Inf")
	}
}

func TestGammaDominatedByBetaPlusEps(t *testing.T) {
	p := Default(7, 2)
	g := p.Gamma()
	if g < p.Beta+p.Eps {
		t.Errorf("γ = %v smaller than β+ε = %v", g, p.Beta+p.Eps)
	}
	// With tiny ρ the higher-order terms are negligible: γ ≈ β+ε within 1%.
	if g > (p.Beta+p.Eps)*1.01 {
		t.Errorf("γ = %v unexpectedly far above β+ε = %v for ρ=1e−5", g, p.Beta+p.Eps)
	}
}

func TestLambdaShorterThanP(t *testing.T) {
	p := Default(7, 2)
	l := p.Lambda()
	if l <= 0 || l >= p.P {
		t.Errorf("λ = %v, want in (0, P=%v)", l, p.P)
	}
}

func TestValidityEnvelopeBracketsOne(t *testing.T) {
	p := Default(7, 2)
	a1, a2, a3 := p.Validity()
	if a1 >= 1 || a2 <= 1 {
		t.Errorf("validity slopes (%v, %v) do not bracket 1", a1, a2)
	}
	if a3 != p.Eps {
		t.Errorf("α₃ = %v, want ε = %v", a3, p.Eps)
	}
	if math.Abs((a2-1)-(1-a1)) > 1e-12 {
		t.Errorf("envelope should be symmetric: α₂−1 = %v, 1−α₁ = %v", a2-1, 1-a1)
	}
}

func TestMeanConvergenceRate(t *testing.T) {
	tests := []struct {
		n, f int
		want float64
	}{
		{4, 1, 0.5},
		{8, 1, 1.0 / 6},
		{16, 1, 1.0 / 14},
		{7, 2, 2.0 / 3},
		{7, 0, 0},
	}
	for _, tt := range tests {
		p := Params{N: tt.n, F: tt.f}
		if got := p.MeanConvergenceRate(); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("MeanConvergenceRate(%d,%d) = %v, want %v", tt.n, tt.f, got, tt.want)
		}
	}
	if !math.IsInf((Params{N: 4, F: 2}).MeanConvergenceRate(), 1) {
		t.Error("n ≤ 2f should report +Inf rate")
	}
}

func TestStartupRecurrenceConvergesToFloor(t *testing.T) {
	p := Default(7, 2)
	b := 10.0 // start 10 seconds apart
	for i := 0; i < 60; i++ {
		b = p.StartupStep(b)
	}
	floor := p.StartupFloor()
	if math.Abs(b-floor) > floor*1e-6 {
		t.Errorf("recurrence converged to %v, want floor %v", b, floor)
	}
	// Floor ≈ 4ε for small ρ.
	if math.Abs(floor-4*p.Eps) > 4*p.Eps*0.01 {
		t.Errorf("floor %v not ≈ 4ε = %v", floor, 4*p.Eps)
	}
}

func TestStartupWaits(t *testing.T) {
	p := Default(7, 2)
	w1, w2 := p.StartupWait1(), p.StartupWait2()
	if w1 <= 0 || w2 <= 0 {
		t.Errorf("waits must be positive: %v, %v", w1, w2)
	}
	// First interval must cover a full exchange: ≥ 2δ.
	if w1 < 2*p.Delta {
		t.Errorf("W1 = %v < 2δ = %v", w1, 2*p.Delta)
	}
	// Second interval is the short guard ≈ 4ε for small ρ.
	if math.Abs(w2-4*p.Eps) > 4*p.Eps*0.01 {
		t.Errorf("W2 = %v not ≈ 4ε = %v", w2, 4*p.Eps)
	}
}

func TestDefaultRegimeDocumentedNumbers(t *testing.T) {
	// The default regime gives λ≈0.993s, ADJ bound ≈6.6ms, γ≈6.6ms, floor≈4.04ms.
	p := Default(7, 2)
	if l := p.Lambda(); math.Abs(l-0.9934) > 1e-3 {
		t.Errorf("λ = %v, want ≈0.993", l)
	}
	if a := p.AdjBound(); math.Abs(a-6.6e-3) > 0.1e-3 {
		t.Errorf("AdjBound = %v, want ≈6.6ms", a)
	}
	if g := p.Gamma(); math.Abs(g-6.6e-3) > 0.1e-3 {
		t.Errorf("γ = %v, want ≈6.6ms", g)
	}
	if b := p.BetaFloor(); math.Abs(b-4.04e-3) > 0.01e-3 {
		t.Errorf("BetaFloor = %v, want ≈4.04ms", b)
	}
}

// TestGammaMonotone: γ must be nondecreasing in each of β, ε, δ, ρ.
func TestGammaMonotone(t *testing.T) {
	base := Default(7, 2)
	bump := []struct {
		name   string
		mutate func(*Params)
	}{
		{"beta", func(p *Params) { p.Beta *= 1.5 }},
		{"eps", func(p *Params) { p.Eps *= 1.5 }},
		{"delta", func(p *Params) { p.Delta *= 1.5 }},
		{"rho", func(p *Params) { p.Rho *= 10 }},
	}
	for _, b := range bump {
		p := base
		b.mutate(&p)
		if p.Gamma() < base.Gamma() {
			t.Errorf("γ decreased when %s grew: %v -> %v", b.name, base.Gamma(), p.Gamma())
		}
	}
}

// TestAdjBoundMonotone: the Theorem 4(a) bound grows with β, ε, δ, ρ.
func TestAdjBoundMonotone(t *testing.T) {
	base := Default(7, 2)
	for _, mutate := range []func(*Params){
		func(p *Params) { p.Beta *= 2 },
		func(p *Params) { p.Eps *= 2 },
		func(p *Params) { p.Delta *= 2 },
		func(p *Params) { p.Rho *= 10 },
	} {
		p := base
		mutate(&p)
		if p.AdjBound() < base.AdjBound() {
			t.Errorf("AdjBound decreased: %v -> %v", base.AdjBound(), p.AdjBound())
		}
	}
}

// TestPMinLessThanPMaxInSaneRegimes: the feasible interval is nonempty for
// realistic LAN/WAN parameters.
func TestPMinLessThanPMaxInSaneRegimes(t *testing.T) {
	regimes := []Params{
		{N: 4, F: 1, Rho: 1e-6, Delta: 1e-3, Eps: 0.1e-3, Beta: 0.6e-3, P: 0.5},
		{N: 7, F: 2, Rho: 1e-5, Delta: 10e-3, Eps: 1e-3, Beta: 5.5e-3, P: 1},
		{N: 13, F: 4, Rho: 1e-5, Delta: 100e-3, Eps: 20e-3, Beta: 90e-3, P: 10},
	}
	for i, p := range regimes {
		if p.PMin() >= p.PMax() {
			t.Errorf("regime %d: empty feasible interval [%v, %v]", i, p.PMin(), p.PMax())
		}
	}
}

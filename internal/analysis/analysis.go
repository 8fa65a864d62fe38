// Package analysis contains the closed forms of every bound the paper proves
// about the algorithm: the §5.2 constraints relating the round length P and
// the closeness β, the adjustment bound of Theorem 4(a), the agreement bound
// γ of Theorem 16, the validity parameters (α₁, α₂, α₃) of Theorem 19, and
// the start-up recurrence of Lemma 20.
//
// Experiments use these functions as the "paper" column next to measured
// values, and Params.Validate gates every simulation configuration. Every
// product that is added or subtracted is wrapped in float64(…), which keeps a
// compiler from fusing the two into one multiply-add (see the root package's
// TestNoFusedFloatOps), so the tables print the same bounds on every GOARCH.
package analysis

import (
	"errors"
	"fmt"
	"math"
)

// Params is the global constant set of the paper: n, f, ρ, δ, ε, β, P, T⁰
// (§3.2, §4.2). All times are in seconds.
type Params struct {
	N     int     // number of processes (A2: n ≥ 3f+1)
	F     int     // maximum number of faulty processes
	Rho   float64 // ρ: physical clock drift bound (A1)
	Delta float64 // δ: median message delay (A3)
	Eps   float64 // ε: delay uncertainty (A3: delays in [δ−ε, δ+ε])
	Beta  float64 // β: initial real-time closeness of logical clocks (A4)
	P     float64 // round length in local time (§4.1)
	T0    float64 // T⁰: local time at which round 0 begins (A4)
}

// Window returns (1+ρ)(β+δ+ε), the length of the collection interval each
// round: just large enough that a process receives Tⁱ messages from all
// nonfaulty processes (§4.1).
func (p Params) Window() float64 { return float64((1 + p.Rho) * (p.Beta + p.Delta + p.Eps)) }

// AdjBound returns the Theorem 4(a) bound on any nonfaulty adjustment:
// |ADJ| ≤ (1+ρ)(β+ε) + ρδ. Section 10 summarizes it as "about 5ε".
func (p Params) AdjBound() float64 {
	return float64((1+p.Rho)*(p.Beta+p.Eps)) + float64(p.Rho*p.Delta)
}

// PMin returns the lower bound the analysis needs for the round length:
// the larger of the Lemma 8 requirement
//
//	P ≥ (1+ρ)(β+δ+ε) + (1+ρ)(β+ε) + ρδ   (timers are set in the future)
//
// and the Lemma 12 requirement
//
//	P ≥ 3(1+ρ)(β+ε) + ρδ                  (round-i messages arrive in round i)
func (p Params) PMin() float64 {
	lemma8 := p.Window() + p.AdjBound()
	lemma12 := float64(3*(1+p.Rho)*(p.Beta+p.Eps)) + float64(p.Rho*p.Delta)
	return math.Max(lemma8, lemma12)
}

// PMax returns the §5.2 upper bound on the round length,
//
//	P ≤ β/(4ρ) − ε/ρ − ρ(β+δ+ε) − 2β − δ − 2ε,
//
// which ensures drift cannot spread the clocks by more than β between
// resynchronizations (Lemma 11). Returns +Inf when ρ = 0.
func (p Params) PMax() float64 {
	if p.Rho == 0 {
		return math.Inf(1)
	}
	return p.Beta/(4*p.Rho) - p.Eps/p.Rho - float64(p.Rho*(p.Beta+p.Delta+p.Eps)) -
		float64(2*p.Beta) - p.Delta - float64(2*p.Eps)
}

// BetaFloor returns the paper's estimate of the achievable closeness along
// the real-time axis for a fixed round length: β ≈ 4ε + 4ρP (§5.2, §7).
func (p Params) BetaFloor() float64 { return float64(4*p.Eps) + float64(4*p.Rho*p.P) }

// BetaFloorK returns the k-exchanges-per-round generalization of §7:
// β ≈ 4ε + 2ρP·2ᵏ/(2ᵏ−1). k must be ≥ 1.
func (p Params) BetaFloorK(k int) float64 {
	if k < 1 {
		return math.Inf(1)
	}
	pow := math.Pow(2, float64(k))
	return float64(4*p.Eps) + 2*p.Rho*p.P*pow/(pow-1)
}

// Gamma returns the Theorem 16 agreement bound:
//
//	γ = β + ε + ρ(7β+3δ+7ε) + 8ρ²(β+δ+ε) + 4ρ³(β+δ+ε).
func (p Params) Gamma() float64 {
	s := p.Beta + p.Delta + p.Eps
	return p.Beta + p.Eps + float64(p.Rho*(float64(7*p.Beta)+float64(3*p.Delta)+float64(7*p.Eps))) +
		float64(8*p.Rho*p.Rho*s) + float64(4*math.Pow(p.Rho, 3)*s)
}

// SkewLowerBound returns ε(1 − 1/n), the lower bound on achievable
// synchronization closeness (Lundelius & Lynch's companion bound, cited in
// §1): no algorithm — whatever its averaging function — can guarantee the
// nonfaulty clocks closer than this, shown by a shifting argument in which
// an adversary retimes every delivery inside the [δ−ε, δ+ε] uncertainty
// window of A3. Experiment E18 reproduces the bound by pitting exactly that
// adversary (the adaptive skewmax strategy on the delivery pipeline)
// against the paper's algorithm and the §10 baselines.
func (p Params) SkewLowerBound() float64 {
	if p.N <= 0 {
		return 0
	}
	return p.Eps * (1 - 1/float64(p.N))
}

// Lambda returns λ = (P − (1+ρ)(β+ε) − ρδ)/(1+ρ), the length of the shortest
// round in real time (§8).
func (p Params) Lambda() float64 {
	return (p.P - float64((1+p.Rho)*(p.Beta+p.Eps)) - float64(p.Rho*p.Delta)) / (1 + p.Rho)
}

// Validity returns the Theorem 19 parameters (α₁, α₂, α₃) = (1−ρ−ε/λ,
// 1+ρ+ε/λ, ε): the local time of a nonfaulty process increases within this
// linear envelope of real time.
func (p Params) Validity() (alpha1, alpha2, alpha3 float64) {
	l := p.Lambda()
	return 1 - p.Rho - p.Eps/l, 1 + p.Rho + p.Eps/l, p.Eps
}

// MeanConvergenceRate returns the per-round error contraction when the
// arithmetic mean replaces the midpoint (§7 end, following [DLPSW]):
// roughly f/(n−2f). For f = 0 the mean of all values contracts to 0 error
// only up to the ±ε noise, so the rate is reported as 0.
func (p Params) MeanConvergenceRate() float64 {
	if p.N <= 2*p.F {
		return math.Inf(1)
	}
	return float64(p.F) / float64(p.N-2*p.F)
}

// MidpointConvergenceRate returns the midpoint averaging contraction, 1/2.
func (Params) MidpointConvergenceRate() float64 { return 0.5 }

// StartupStep applies the Lemma 20 recurrence to a closeness value:
// B^{i+1} ≤ B^i/2 + 2ε + 2ρ(11δ+39ε).
func (p Params) StartupStep(b float64) float64 {
	return float64(b/2) + float64(2*p.Eps) + float64(2*p.Rho*(float64(11*p.Delta)+float64(39*p.Eps)))
}

// StartupFloor returns the fixed point of the Lemma 20 recurrence,
// 4ε + 4ρ(11δ+39ε) — "the algorithm achieves a closeness of synchronization
// of about 4ε" (§9.2).
func (p Params) StartupFloor() float64 {
	return float64(4*p.Eps) + float64(4*p.Rho*(float64(11*p.Delta)+float64(39*p.Eps)))
}

// StartupWait1 returns the first waiting interval of the §9.2 code,
// (1+ρ)(2δ+4ε): long enough to receive every nonfaulty clock value.
func (p Params) StartupWait1() float64 {
	return (1 + p.Rho) * (float64(2*p.Delta) + float64(4*p.Eps))
}

// StartupWait2 returns the second waiting interval of the §9.2 code,
// (1+ρ)(4ε + 4ρ(δ+2ε) + 2ρ²(δ+4ε)), which keeps new-round messages from
// arriving before other nonfaulty processes finish their first interval.
func (p Params) StartupWait2() float64 {
	return (1 + p.Rho) * (float64(4*p.Eps) + float64(4*p.Rho*(p.Delta+float64(2*p.Eps))) +
		float64(2*p.Rho*p.Rho*(p.Delta+float64(4*p.Eps))))
}

// Validate checks every standing assumption (A1–A4) and the §5.2 parameter
// constraints, returning an error describing all violations.
func (p Params) Validate() error {
	var errs []error
	if p.N < 1 {
		errs = append(errs, fmt.Errorf("n = %d must be positive", p.N))
	}
	if p.F < 0 {
		errs = append(errs, fmt.Errorf("f = %d must be nonnegative", p.F))
	}
	if p.N < 3*p.F+1 {
		errs = append(errs, fmt.Errorf("assumption A2 violated: n = %d < 3f+1 = %d", p.N, 3*p.F+1))
	}
	if p.Rho < 0 {
		errs = append(errs, fmt.Errorf("ρ = %v must be nonnegative", p.Rho))
	}
	if p.Eps < 0 {
		errs = append(errs, fmt.Errorf("ε = %v must be nonnegative", p.Eps))
	}
	if p.Delta <= p.Eps {
		errs = append(errs, fmt.Errorf("assumption A3 violated: need δ > ε, got δ=%v ε=%v", p.Delta, p.Eps))
	}
	if p.Beta <= 0 {
		errs = append(errs, fmt.Errorf("β = %v must be positive", p.Beta))
	}
	if p.P < p.PMin() {
		errs = append(errs, fmt.Errorf("round length P = %v below lower bound %v (Lemmas 8, 12)", p.P, p.PMin()))
	}
	if pmax := p.PMax(); p.P > pmax {
		errs = append(errs, fmt.Errorf("round length P = %v above upper bound %v (§5.2, Lemma 11)", p.P, pmax))
	}
	return errors.Join(errs...)
}

// Default returns the parameter regime used throughout the experiments:
// ρ=1e−5, δ=10ms, ε=1ms, β=5.5ms, P=1s.
func Default(n, f int) Params {
	return Params{
		N:     n,
		F:     f,
		Rho:   1e-5,
		Delta: 10e-3,
		Eps:   1e-3,
		Beta:  5.5e-3,
		P:     1.0,
		T0:    0,
	}
}

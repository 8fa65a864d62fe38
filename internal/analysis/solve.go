package analysis

import (
	"fmt"
	"math"
)

// MinBetaForP returns the smallest initial-closeness β for which the §5.2
// upper bound on the round length still admits P:
//
//	P ≤ β/(4ρ) − ε/ρ − ρ(β+δ+ε) − 2β − δ − 2ε
//
// solved for β. For ρ = 0 any positive β works and the function returns 0.
// This is the closed form behind the paper's remark that, with P regarded as
// fixed, β is roughly 4ε + 4ρP.
func MinBetaForP(rho, delta, eps, p float64) float64 {
	if rho == 0 {
		return 0
	}
	denom := 1/(4*rho) - rho - 2
	if denom <= 0 {
		return math.Inf(1) // ρ absurdly large: no β works
	}
	num := p + eps/rho + delta + float64(2*eps) + float64(rho*(delta+eps))
	return num / denom
}

// Suggest builds a fully validated parameter set for the given environment
// (n, f, ρ, δ, ε) and desired round length P, choosing β a safety margin
// above its minimum. It fails when no feasible β exists (P too long for the
// drift, or P below the §5.2 lower bound for every admissible β).
func Suggest(n, f int, rho, delta, eps, p float64) (Params, error) {
	beta := MinBetaForP(rho, delta, eps, p)
	if math.IsInf(beta, 1) {
		return Params{}, fmt.Errorf("analysis: drift ρ=%v too large for any round length", rho)
	}
	// Margin, and a floor for the drift-free case: β must still be
	// positive and exceed the ε-noise the algorithm can't remove.
	beta = math.Max(beta*1.1, float64(4*eps)+float64(eps/2))
	params := Params{
		N: n, F: f,
		Rho: rho, Delta: delta, Eps: eps,
		Beta: beta, P: p,
	}
	if err := params.Validate(); err != nil {
		return Params{}, fmt.Errorf("analysis: no feasible parameters for ρ=%v δ=%v ε=%v P=%v: %w",
			rho, delta, eps, p, err)
	}
	return params, nil
}

// FeasiblePRange returns the admissible round-length interval [PMin, PMax]
// for the parameter set, ignoring its current P.
func (p Params) FeasiblePRange() (pmin, pmax float64) {
	return p.PMin(), p.PMax()
}

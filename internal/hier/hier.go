// Package hier composes the paper's §4.2 maintenance algorithm into a
// two-tier hierarchy, breaking the flat mesh's Θ(n²) per-round message
// traffic.
//
// Processes are grouped into clusters of (up to) ClusterSize contiguous ids.
// Every cluster runs the algorithm internally on a fast intra-cluster
// substrate (δ_in, ε_in): each member multicasts its round mark to its
// cluster only, so a round costs ≈ n·c copies instead of n². Each cluster's
// acting representative runs a second instance of the same algorithm across
// clusters on the (slower, wider) inter-cluster substrate (δ_out, ε_out),
// multicasting to each foreign cluster's candidates — ≈ (n/c)²·Candidates
// copies per round — and relays every outer adjustment to its followers as
// a discipline message (c−1 copies). Followers add the disciplined
// adjustment to their own correction, so a whole cluster tracks its
// representative's outer instance while the inner instance keeps the
// members tight around it.
//
// Representatives are elected deterministically: the lowest id of each
// cluster acts first, and every follower monitors the discipline heartbeat —
// a representative that stays silent past ElectAfter of local time is
// deposed by rotating to the next of the cluster's Candidates lowest ids.
// Outer-tier arrivals are slotted by *cluster*, not by sender id, so a
// freshly elected representative is heard by every foreign representative
// without any membership exchange.
//
// The steady-state agreement envelope of the composition is
// analysis.HierParams.GammaComposed: γ_composed = 2γ_in + γ_out +
// AdjBound_out (see that function for the derivation), checked at runtime by
// invariant.HierAgreement and pinned by experiment E20.
package hier

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// Config parameterizes a two-tier system. The zero value is not usable;
// start from Default and override.
type Config struct {
	// N is the total number of processes.
	N int
	// ClusterSize is c: processes [j·c, (j+1)·c) form cluster j. The last
	// cluster may be smaller when c does not divide n; every cluster must
	// still satisfy A2 for FIn.
	ClusterSize int
	// FIn is the per-cluster fault tolerance (cluster size ≥ 3·FIn+1).
	FIn int
	// FOut is the tolerated number of Byzantine representatives — clusters
	// whose outer-tier slot cannot be trusted (clusters ≥ 3·FOut+1).
	FOut int

	// Rho is the drift bound ρ shared by both tiers (A1 is per clock).
	Rho float64
	// InnerDelta/InnerEps/InnerBeta are the intra-cluster substrate and
	// initial-closeness parameters (δ_in, ε_in, β_in).
	InnerDelta, InnerEps, InnerBeta float64
	// OuterDelta/OuterEps/OuterBeta are the inter-cluster equivalents.
	OuterDelta, OuterEps, OuterBeta float64

	// P is the round length, shared by both tiers; the outer tier's marks
	// are offset by P/2 so discipline messages land mid-round, clear of the
	// inner collection windows.
	P float64
	// T0 is the local time at which inner round 0 begins.
	T0 float64

	// Candidates is how many of a cluster's lowest ids may act as its
	// representative (the election rotation set), clamped to the cluster
	// size. Default 2.
	Candidates int
	// ElectAfter is the discipline-silence timeout in local seconds after
	// which a follower deposes the acting representative. Default 2.5·P.
	ElectAfter float64
}

// Default returns a validated-by-construction two-tier regime for n
// processes in clusters of c: a LAN-like inner substrate (δ_in=2ms,
// ε_in=0.25ms) under a WAN-like outer substrate (δ_out=30ms, ε_out=2ms),
// with the fault budgets set to the largest values the topology supports
// (f_in from the smallest cluster, f_out from the cluster count).
func Default(n, c int) Config {
	cfg := Config{
		N:           n,
		ClusterSize: c,
		Rho:         1e-5,
		InnerDelta:  2e-3, InnerEps: 0.25e-3, InnerBeta: 4e-3,
		OuterDelta: 30e-3, OuterEps: 2e-3, OuterBeta: 12e-3,
		P: 1.0, T0: 0,
	}
	cfg = cfg.withDefaults()
	minSize := c
	if r := n % c; r != 0 && r < minSize {
		minSize = r
	}
	cfg.FIn = (minSize - 1) / 3
	cfg.FOut = (cfg.Clusters() - 1) / 3
	return cfg
}

func (c Config) withDefaults() Config {
	if c.Candidates <= 0 {
		c.Candidates = 2
	}
	if c.ElectAfter == 0 {
		c.ElectAfter = 2.5 * c.P
	}
	return c
}

// Clusters returns m = ⌈n/c⌉.
func (c Config) Clusters() int { return (c.N + c.ClusterSize - 1) / c.ClusterSize }

// ClusterOf returns the cluster index owning process id.
func (c Config) ClusterOf(id sim.ProcID) int { return int(id) / c.ClusterSize }

// ClusterBounds returns the id range [lo, hi) of cluster j.
func (c Config) ClusterBounds(j int) (lo, hi sim.ProcID) {
	lo = sim.ProcID(j * c.ClusterSize)
	hi = lo + sim.ProcID(c.ClusterSize)
	if int(hi) > c.N {
		hi = sim.ProcID(c.N)
	}
	return lo, hi
}

// InnerParams returns the inner instance's paper parameters for cluster j.
func (c Config) InnerParams(j int) analysis.Params {
	lo, hi := c.ClusterBounds(j)
	return analysis.Params{
		N: int(hi - lo), F: c.FIn,
		Rho: c.Rho, Delta: c.InnerDelta, Eps: c.InnerEps,
		Beta: c.InnerBeta, P: c.P, T0: c.T0,
	}
}

// OuterParams returns the representative instance's paper parameters. The
// outer round marks are offset by P/2 from the inner ones.
func (c Config) OuterParams() analysis.Params {
	return analysis.Params{
		N: c.Clusters(), F: c.FOut,
		Rho: c.Rho, Delta: c.OuterDelta, Eps: c.OuterEps,
		Beta: c.OuterBeta, P: c.P, T0: c.T0 + float64(c.P/2),
	}
}

// HierParams bundles the analysis view of both tiers (the inner side uses
// the full cluster size; the γ/AdjBound bounds are N-free).
func (c Config) HierParams() analysis.HierParams {
	return analysis.HierParams{Inner: c.InnerParams(0), Outer: c.OuterParams()}
}

// GammaComposed returns the composed agreement envelope 2γ_in + γ_out +
// AdjBound_out.
func (c Config) GammaComposed() float64 { return c.HierParams().GammaComposed() }

// Validate checks the topology and both tiers' paper constraints.
func (c Config) Validate() error {
	c = c.withDefaults()
	var errs []error
	if c.N < 1 {
		errs = append(errs, fmt.Errorf("n = %d must be positive", c.N))
	}
	if c.ClusterSize < 1 {
		errs = append(errs, fmt.Errorf("cluster size %d must be positive", c.ClusterSize))
	}
	if c.ClusterSize > c.N {
		errs = append(errs, fmt.Errorf("cluster size %d exceeds n = %d", c.ClusterSize, c.N))
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	// Validate once per distinct cluster size: only the A2 count check
	// depends on N, and contiguous grouping yields at most two sizes.
	if err := c.InnerParams(0).Validate(); err != nil {
		errs = append(errs, fmt.Errorf("inner tier: %w", err))
	}
	if last := c.Clusters() - 1; last > 0 {
		lo, hi := c.ClusterBounds(last)
		if int(hi-lo) != c.ClusterSize {
			if err := c.InnerParams(last).Validate(); err != nil {
				errs = append(errs, fmt.Errorf("inner tier (last cluster, %d members): %w", int(hi-lo), err))
			}
		}
	}
	if err := c.OuterParams().Validate(); err != nil {
		errs = append(errs, fmt.Errorf("outer tier: %w", err))
	}
	if c.ElectAfter <= c.P {
		errs = append(errs, fmt.Errorf("election timeout %v must exceed the round length %v (one missed heartbeat is not silence)", c.ElectAfter, c.P))
	}
	return errors.Join(errs...)
}

// MsgsPerRoundFlat returns the flat mesh's per-round copy count n².
func (c Config) MsgsPerRoundFlat() float64 { return float64(c.N) * float64(c.N) }

// candidateBounds returns the id range [lo, hi) of cluster j's
// representative candidates: its Candidates lowest ids, clamped to the
// cluster.
func (c Config) candidateBounds(j int) (lo, hi sim.ProcID) {
	lo, hi = c.ClusterBounds(j)
	return lo, min(hi, lo+sim.ProcID(c.Candidates))
}

// MsgsPerRound returns the hierarchy's per-round copy count with every
// representative in office: every member multicasts its mark to its cluster
// (Σ c_j² ≈ n·c), every representative multicasts its outer mark to each
// foreign cluster's candidates ((m−1)·Σ cand_j ≈ m²·cand; its own slot it
// records without a copy) and disciplines its followers (Σ (c_j−1)).
func (c Config) MsgsPerRound() float64 {
	cc := c.withDefaults()
	m := cc.Clusters()
	total, cands := 0, 0
	for j := 0; j < m; j++ {
		lo, hi := cc.ClusterBounds(j)
		_, ch := cc.candidateBounds(j)
		size := int(hi - lo)
		total += size*size + size - 1
		cands += int(ch - lo)
	}
	return float64(total + (m-1)*cands)
}

// GammaInner returns the per-cluster agreement envelope: the inner tier's
// own γ plus one outer adjustment of discipline-propagation slack (the
// representative and its followers apply each outer adjustment up to
// δ_in+ε_in of real time apart, during which the within-cluster spread
// carries that adjustment on top of γ_in).
func (c Config) GammaInner() float64 {
	return c.InnerParams(0).Gamma() + c.OuterParams().AdjBound()
}

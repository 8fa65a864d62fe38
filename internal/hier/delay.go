package hier

import (
	"math"

	"repro/internal/clock"
	"repro/internal/sim"
)

// ClusteredDelay is the two-substrate network of a hierarchy: copies between
// processes of the same cluster draw uniformly from the inner band
// [δ_in−ε_in, δ_in+ε_in], copies crossing clusters from the outer band.
// Exactly one rng draw is consumed per copy regardless of band, so delivery
// schedules stay reproducible when only the topology changes.
//
// Bounds reports the single enclosing envelope [lo, hi] of both bands as a
// (δ, ε) pair: it is what the engine needs for A3-style admission checks and
// what sharded execution uses for its lookahead, and the enclosing lower
// edge is the true minimum latency across all links.
//
// It holds what Sample reads and nothing more: Sample has a value receiver,
// so the engine copies the model on every copy's draw.
type ClusteredDelay struct {
	ClusterSize          int
	InnerDelta, InnerEps float64
	OuterDelta, OuterEps float64
}

var _ sim.CounterDelayModel = ClusteredDelay{}

// DrawsPerCopy implements sim.CounterDelayModel: one Float64 a copy, in
// either band, so a windowed engine keeps a fan-out's row as its sender's
// stream state rather than its delivery times.
func (ClusteredDelay) DrawsPerCopy() int { return 1 }

// NewClusteredDelay builds the network matching cfg's clusters and substrate
// parameters.
func NewClusteredDelay(cfg Config) ClusteredDelay {
	return ClusteredDelay{
		ClusterSize: cfg.ClusterSize,
		InnerDelta:  cfg.InnerDelta, InnerEps: cfg.InnerEps,
		OuterDelta: cfg.OuterDelta, OuterEps: cfg.OuterEps,
	}
}

// Sample implements sim.DelayModel.
func (d ClusteredDelay) Sample(from, to sim.ProcID, _ clock.Real, rng *sim.RNG) float64 {
	u := rng.Float64()
	if int(from)/d.ClusterSize == int(to)/d.ClusterSize {
		return d.InnerDelta - d.InnerEps + float64(2*d.InnerEps*u)
	}
	return d.OuterDelta - d.OuterEps + float64(2*d.OuterEps*u)
}

// Bounds implements sim.DelayModel: the enclosing envelope of both bands.
func (d ClusteredDelay) Bounds() (float64, float64) {
	lo := math.Min(d.InnerDelta-d.InnerEps, d.OuterDelta-d.OuterEps)
	hi := math.Max(d.InnerDelta+d.InnerEps, d.OuterDelta+d.OuterEps)
	return (lo + hi) / 2, (hi - lo) / 2
}

package invariant

import (
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// HierAgreement is the composed agreement predicate of the two-tier topology
// (internal/hier): from the skew recorder's Warmup on, the nonfaulty local-time spread across
// the whole system stays within Gamma = γ_composed
// (analysis.HierParams.GammaComposed), and — when GammaIn > 0 — the spread
// inside every cluster stays within the inner tier's own γ. The two checks
// together pin both halves of the composition argument: the inner instances
// keep clusters tight, and the outer instance plus discipline keeps the
// clusters' frames together.
//
// Exclude marks whole clusters (by cluster index) whose members should be
// left out of the *global* spread — the partition experiment cuts one
// cluster off and asserts the connected majority still agrees, while the
// per-cluster check continues to cover the partitioned cluster's internal
// tightness. A nil Exclude checks everyone.
type HierAgreement struct {
	recorder
	Gamma       float64
	GammaIn     float64
	ClusterSize int
	Exclude     []bool
	// Skew is the recorder the checker samples through: its Warmup is the
	// checker's, and without Exclude its spread is the one checked.
	Skew *metrics.SkewRecorder

	// Sized at the first per-cluster pass: cluster[i] is the cluster of the
	// i-th process of Engine.LocalTimes, seen[j] whether cluster j has one at
	// all, lo/hi the per-cluster extremes at configuration version ver.
	cluster []int32
	seen    []bool
	lo, hi  []clock.Local
	ver     uint64

	maxSpread float64
}

var _ sim.Sampler = (*HierAgreement)(nil)

// NewHierAgreement builds the composed checker over a skew recorder of its
// own with the given warm-up. gammaIn ≤ 0 disables the per-cluster check.
func NewHierAgreement(gamma, gammaIn float64, clusterSize int, warmup clock.Real) *HierAgreement {
	return &HierAgreement{
		recorder: recorder{name: "hier-agreement"},
		Gamma:    gamma, GammaIn: gammaIn,
		ClusterSize: clusterSize,
		Skew:        &metrics.SkewRecorder{Warmup: warmup},
	}
}

// MaxSpread returns the largest spread of the checked population (everyone
// outside Exclude) seen from the warm-up on — the quantity held against Gamma.
func (h *HierAgreement) MaxSpread() float64 { return h.maxSpread }

// Sample implements sim.Sampler. Without Exclude the global spread is the
// one the skew recorder records, and the per-cluster pass runs only when
// that spread exceeds GammaIn: every cluster's hi − lo is at most the
// global hi − lo (float subtraction is monotone), so below it no cluster
// can violate.
func (h *HierAgreement) Sample(e *sim.Engine, _ bool) {
	t, skew, count := h.Skew.Measure(e)
	if t < h.Skew.Warmup {
		return
	}
	if h.Exclude != nil {
		h.refill(e)
		var glo, ghi clock.Local
		count = 0
		for j, seen := range h.seen {
			if !seen || (j < len(h.Exclude) && h.Exclude[j]) {
				continue
			}
			if count == 0 {
				glo, ghi = h.lo[j], h.hi[j]
			} else {
				if h.lo[j] < glo {
					glo = h.lo[j]
				}
				if h.hi[j] > ghi {
					ghi = h.hi[j]
				}
			}
			count++
		}
		skew = float64(ghi - glo)
	}
	if count == 0 {
		return
	}
	h.checked++
	h.maxSpread = max(h.maxSpread, skew)
	if skew > h.Gamma {
		h.violate(Violation{
			Invariant: h.name, At: t, Proc: -1,
			Amount: skew - h.Gamma,
			Detail: fmt.Sprintf("global skew %.3gs > γ_composed %.3gs", skew, h.Gamma),
		})
	}
	if h.GammaIn <= 0 || (h.Exclude == nil && skew <= h.GammaIn) {
		return
	}
	h.refill(e)
	for j, seen := range h.seen {
		if !seen {
			continue
		}
		if skew := float64(h.hi[j] - h.lo[j]); skew > h.GammaIn {
			h.violate(Violation{
				Invariant: h.name, At: t, Proc: -1,
				Amount: skew - h.GammaIn,
				Detail: fmt.Sprintf("cluster %d skew %.3gs > γ_in %.3gs", j, skew, h.GammaIn),
			})
		}
	}
}

// refill brings the per-cluster extremes to the engine's configuration,
// sizing them at the first call.
func (h *HierAgreement) refill(e *sim.Engine) {
	ids, lts := e.LocalTimes()
	ver := e.ConfigVersion()
	if h.seen == nil {
		nc := (e.N() + h.ClusterSize - 1) / h.ClusterSize
		h.lo = make([]clock.Local, nc)
		h.hi = make([]clock.Local, nc)
		h.seen = make([]bool, nc)
		h.cluster = make([]int32, len(ids))
		for i, p := range ids {
			j := int(p) / h.ClusterSize
			h.cluster[i], h.seen[j] = int32(j), true
		}
	}
	if ver == h.ver {
		return // the extremes already held are this configuration's
	}
	for j := range h.lo {
		h.lo[j], h.hi[j] = clock.Local(math.Inf(1)), clock.Local(math.Inf(-1))
	}
	for i, lt := range lts {
		j := h.cluster[i]
		if lt < h.lo[j] {
			h.lo[j] = lt
		}
		if lt > h.hi[j] {
			h.hi[j] = lt
		}
	}
	h.ver = ver
}

package exp

import "sync/atomic"

// Tier says how much of each sweep experiment runs. The tiers are ordered:
// each includes everything the one below it runs.
type Tier int32

const (
	// TierQuick drops the large parameter points of the sweep experiments
	// (E05 beyond f = 4, E09 beyond n = 31, the n = 13 and n = 1009 rows of
	// E17–E20); the test harness selects it under -short so the quick loop
	// stays quick (see TestMain in golden_test.go).
	TierQuick Tier = iota - 1
	// TierFull, the zero value and the default, regenerates the complete
	// tables; the goldens are pinned at this tier.
	TierFull
	// TierStress adds the nightly-scale rows (E17 at n ∈ {31, 63}, E19 and
	// E20 beyond n = 4000). They are additive-only, so the golden tables and
	// the per-push CI loop never run them; the nightly workflow selects the
	// tier with `cmd/experiments -stress`.
	TierStress
)

var sweepTier atomic.Int32

// SetSweepTier selects the tier every subsequent experiment run reads.
func SetSweepTier(t Tier) { sweepTier.Store(int32(t)) }

// SweepTier returns the tier in force.
func SweepTier() Tier { return Tier(sweepTier.Load()) }

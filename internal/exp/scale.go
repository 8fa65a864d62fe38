package exp

import (
	"sync/atomic"

	"repro/internal/sim"
)

// bigSweepsOn gates the large parameter points of the sweep experiments
// (E05 beyond f = 4, E09 beyond n = 31, the E17 conformance grid's largest
// systems). They are enabled by default so cmd/experiments regenerates the
// full tables; the test harness turns them off under -short so the quick
// loop stays quick (see TestMain in golden_test.go).
var bigSweepsOn atomic.Bool

func init() { bigSweepsOn.Store(true) }

// SetBigSweeps enables or disables the large sweep rows.
func SetBigSweeps(on bool) { bigSweepsOn.Store(on) }

// BigSweeps reports whether the large sweep rows are enabled.
func BigSweeps() bool { return bigSweepsOn.Load() }

// stressTierOn gates the nightly-scale stress rows (the E17 conformance
// grid at n = 31). Off by default — the stress tier is additive-only, so
// the golden tables and the per-push CI loop never run it; the nightly
// workflow turns it on with `cmd/experiments -stress`.
var stressTierOn atomic.Bool

// SetStressTier enables or disables the nightly stress rows.
func SetStressTier(on bool) { stressTierOn.Store(on) }

// StressTier reports whether the nightly stress rows are enabled.
func StressTier() bool { return stressTierOn.Load() }

// broadcastOverride is the broadcast materialization mode every Run hands
// the engine: BroadcastAuto (the zero value) unless the test harness forces
// one. The golden equivalence test uses it to replay the full experiment
// suite under forced lazy materialization and demand byte-identical tables.
var broadcastOverride atomic.Int32

// SetBroadcastOverride forces mode on every subsequent Run.
func SetBroadcastOverride(m sim.BroadcastMode) { broadcastOverride.Store(int32(m)) }

// ClearBroadcastOverride restores the engine's automatic mode selection.
func ClearBroadcastOverride() { SetBroadcastOverride(sim.BroadcastAuto) }

// broadcastMode returns the mode in force.
func broadcastMode() sim.BroadcastMode { return sim.BroadcastMode(broadcastOverride.Load()) }

package sim_test

import (
	"testing"

	"repro/internal/hier"
	"repro/internal/sim"
)

// TestRedrawMatchesStoredRows: for every delay model that declares its draws
// per copy, a drawn row's times, redrawn tile by tile on the partition that
// gathers them, equal bit for bit the stored row they replace, for a
// Broadcast, for Multicasts over blocks that straddle gather tiles and
// partitions, and for Sends (sim.CheckRedraw).
func TestRedrawMatchesStoredRows(t *testing.T) {
	const delta, eps = 4e-4, 1e-4
	for _, m := range []struct {
		name  string
		model sim.CounterDelayModel
	}{
		{"constant", sim.ConstantDelay{Delta: delta}},
		{"uniform", sim.UniformDelay{Delta: delta, Eps: eps}},
		{"extremal", sim.ExtremalDelay{Delta: delta, Eps: eps}},
		{"extremal/slowto", sim.ExtremalDelay{Delta: delta, Eps: eps, SlowTo: func(from, to sim.ProcID) bool { return (from+to)%3 == 0 }}},
		{"perlink", sim.PerLinkDelay{Delta: delta, Eps: eps, Seed: 3}},
		{"center", sim.CenterDelay{Delta: delta, Eps: eps}},
		{"clustered", hier.ClusteredDelay{ClusterSize: 6, InnerDelta: 3e-4, InnerEps: 5e-5, OuterDelta: delta, OuterEps: eps}},
	} {
		t.Run(m.name, func(t *testing.T) {
			drawn := sim.CheckRedraw(t, m.model)
			for _, fan := range []string{"broadcast", "multicast", "send"} {
				if drawn[fan] == 0 {
					t.Fatalf("no drawn %s row compared: %v", fan, drawn)
				}
			}
			t.Logf("drawn rows compared: %v", drawn)
		})
	}
}

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
// partitions, and for Sends (sim.CheckRedraw) — on the full mesh, and over
// LossyLinks (the "/lossy" legs), whose dead links cross the partition cut
// at 20 and the tile boundary at 16, so a redrawn row routes its copies and
// loses those the sender's did.
func TestRedrawMatchesStoredRows(t *testing.T) {
	const delta, eps = 4e-4, 1e-4
	lossy := sim.LossyLinks{}.BreakBothWays(3, 30).BreakBothWays(15, 17).BreakBothWays(19, 21)
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
		for _, ch := range []sim.Channel{nil, lossy} {
			name := m.name
			if ch != nil {
				name += "/lossy"
			}
			t.Run(name, func(t *testing.T) {
				drawn := sim.CheckRedraw(t, m.model, ch)
				for _, fan := range []string{"broadcast", "multicast", "send"} {
					if drawn[fan] == 0 {
						t.Fatalf("no drawn %s row compared: %v", fan, drawn)
					}
				}
				if (drawn["lost"] > 0) != (ch != nil) {
					t.Fatalf("%d lost copies compared: %v", drawn["lost"], drawn)
				}
				t.Logf("drawn rows compared: %v", drawn)
			})
		}
	}
}

package sim_test

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/hier"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// TestRedrawMatchesStoredRows: for every delay model that declares its draws
// per copy, a drawn row's times, redrawn tile by tile on the partition that
// gathers them, equal bit for bit the stored row they replace, for a
// Broadcast, for Multicasts over blocks that straddle gather tiles and
// partitions, and for Sends (sim.CheckRedraw) — on the full mesh and over
// LossyLinks (the "/lossy" legs), whose dead links cross the partition cut at
// 20 and the tile boundary at 16, so a redrawn row routes its copies and
// loses those the sender's did; either way each row's extremes are its
// declared span. Over LossyLinks a Send the channel loses whole posts a
// drawn row and no stored one.
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
				if (drawn["lost"] > 0) != (ch != nil) || (drawn["wholly lost"] > 0) != (ch != nil) {
					t.Fatalf("%d lost copies and %d wholly lost rows compared: %v", drawn["lost"], drawn["wholly lost"], drawn)
				}
				t.Logf("drawn rows compared: %v", drawn)
			})
		}
	}
}

// TestClusteredMulticastInnerBand: a ClusteredDelay multicast over the
// sender's own cluster is posted with the inner band as its extremes, one
// wholly outside it with the outer band, and a broadcast, which reaches
// both, with their envelope.
func TestClusteredMulticastInnerBand(t *testing.T) {
	d := hier.ClusteredDelay{ClusterSize: 7, InnerDelta: 3e-4, InnerEps: 5e-5, OuterDelta: 4e-4, OuterEps: 1e-4}
	inLo, inHi := sim.UniformSpan(d.InnerDelta, d.InnerEps)
	outLo, outHi := sim.UniformSpan(d.OuterDelta, d.OuterEps)
	seen := map[string]int{}
	for _, block := range []int{0, 7} {
		for _, h := range sim.DrawnHeaders(t, d, block) {
			band, lo, hi := "envelope", min(inLo, outLo), max(inHi, outHi)
			switch c := int(h.From) / 7 * 7; {
			case int(h.Lo) >= c && int(h.Hi) <= c+7:
				band, lo, hi = "inner", inLo, inHi
			case int(h.Hi) <= c || int(h.Lo) >= c+7:
				band, lo, hi = "outer", outLo, outHi
			}
			if h.Min != float64(h.SentAt+clock.Real(lo)) || h.Max != float64(h.SentAt+clock.Real(hi)) {
				t.Fatalf("a multicast from %d over [%d, %d) carries [%v, %v], want the %s band [%v, %v] from %v",
					h.From, h.Lo, h.Hi, h.Min, h.Max, band, lo, hi, h.SentAt)
			}
			seen[band]++
		}
	}
	if seen["inner"] == 0 || seen["outer"] == 0 || seen["envelope"] == 0 {
		t.Fatalf("rows by band: %v, want each", seen)
	}
	t.Logf("rows by band: %v", seen)
}

// TestDelayModelsKeepDeclarations runs simtest.CheckDelayModel over every
// delay model that declares its draws per copy: sim's five, with
// ExtremalDelay's split both ways, hier.ClusteredDelay, and the test doubles,
// which declare their true spans.
func TestDelayModelsKeepDeclarations(t *testing.T) {
	const delta, eps = 4e-4, 1e-4
	for _, m := range []struct {
		name  string
		model sim.CounterDelayModel
	}{
		{"constant", sim.ConstantDelay{Delta: delta}},
		{"uniform", sim.UniformDelay{Delta: delta, Eps: eps}},
		{"uniform/wide", sim.UniformDelay{Delta: 10e-3, Eps: 1e-3}},
		{"extremal", sim.ExtremalDelay{Delta: delta, Eps: eps}},
		{"extremal/slowto", sim.ExtremalDelay{Delta: delta, Eps: eps, SlowTo: func(from, to sim.ProcID) bool { return (from+to)%3 == 0 }}},
		{"perlink", sim.PerLinkDelay{Delta: delta, Eps: eps, Seed: 3}},
		{"center", sim.CenterDelay{Delta: delta, Eps: eps}},
		{"clustered", hier.ClusteredDelay{ClusterSize: 6, InnerDelta: 3e-4, InnerEps: 5e-5, OuterDelta: delta, OuterEps: eps}},
		{"undershoot", sim.Undershoot(sim.UniformDelay{Delta: delta, Eps: eps}, 6)},
	} {
		t.Run(m.name, func(t *testing.T) { simtest.CheckDelayModel(t, m.model) })
	}
}

// failures records what a harness reports instead of failing the test.
type failures struct {
	testing.TB
	n int
}

func (f *failures) Errorf(string, ...any) { f.n++ }
func (f *failures) Helper()               {}

// TestCheckDelayModelCatches: the harness fails a model that draws more
// than it declares, one whose span is one ulp too narrow at both ends, one
// whose copies leave its span, and one whose SampleAll depends on the
// recipient — each a wrong declaration a windowed engine would otherwise
// redraw or post by.
func TestCheckDelayModelCatches(t *testing.T) {
	u := sim.UniformDelay{Delta: 4e-4, Eps: 1e-4}
	for _, m := range []struct {
		name  string
		model sim.CounterDelayModel
	}{
		{"miscounted", sim.Miscounted(u)},
		{"narrowed/uniform", sim.Narrowed(u)},
		{"narrowed/extremal", sim.Narrowed(sim.ExtremalDelay{Delta: 4e-4, Eps: 1e-4})},
		{"narrowed/clustered", sim.Narrowed(hier.ClusteredDelay{ClusterSize: 6, InnerDelta: 3e-4, InnerEps: 5e-5, OuterDelta: 4e-4, OuterEps: 1e-4})},
		{"misspan", sim.Misspan(u, 3e-4, 4e-4)},
		{"recipient-batch", sim.RecipientBatch(u)},
	} {
		t.Run(m.name, func(t *testing.T) {
			f := &failures{TB: t}
			simtest.CheckDelayModel(f, m.model)
			if f.n == 0 {
				t.Fatal("the harness passed a wrong declaration")
			}
		})
	}
}

package faults_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/sim"
)

func TestStrategyRegistry(t *testing.T) {
	all := faults.Strategies()
	if len(all) < 10 {
		t.Fatalf("registry has %d strategies, want ≥ 10", len(all))
	}
	for i, s := range all {
		if s.Name == "" || s.Desc == "" || (s.Build == nil) == (s.BuildAdaptive == nil) {
			t.Errorf("strategy %d incomplete: %+v", i, s)
		}
		if i > 0 && all[i-1].Name >= s.Name {
			t.Errorf("registry not sorted: %s before %s", all[i-1].Name, s.Name)
		}
	}
	for _, name := range []string{"silent", "clique", "edge-rider", "drift-max", "flaky-rejoin", "random-timing"} {
		s, err := faults.ByName(name)
		if err != nil {
			t.Errorf("ByName(%s): %v", name, err)
		}
		if s.Adaptive() {
			t.Errorf("strategy %s misclassified as adaptive", name)
		}
	}
	for _, name := range []string{"skewmax", "splitter"} {
		s, err := faults.ByName(name)
		if err != nil {
			t.Errorf("ByName(%s): %v", name, err)
		}
		if !s.Adaptive() {
			t.Errorf("strategy %s not classified as adaptive", name)
		}
	}
	if _, err := faults.ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
	for _, s := range faults.ScheduleDriven() {
		if s.Adaptive() {
			t.Errorf("ScheduleDriven returned adaptive strategy %s", s.Name)
		}
	}
	if len(all) != len(faults.ScheduleDriven())+2 {
		t.Errorf("expected exactly 2 adaptive strategies: %d total, %d schedule-driven",
			len(all), len(faults.ScheduleDriven()))
	}
}

func TestTopIDs(t *testing.T) {
	got := faults.TopIDs(3, 10)
	want := []sim.ProcID{9, 8, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopIDs(3, 10) = %v, want %v", got, want)
		}
	}
	// The conventional placement: top f ids, none for a pure retimer, and
	// explicit members as given.
	cfg := cfg7()
	for name, want := range map[string][]sim.ProcID{"two-faced": {6, 5}, "splitter": {6, 5}, "skewmax": nil} {
		s, err := faults.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Members(cfg, nil); !slices.Equal(got, want) {
			t.Errorf("%s.Members(nil) = %v, want %v", name, got, want)
		}
		if got := s.Members(cfg, []sim.ProcID{3}); !slices.Equal(got, []sim.ProcID{3}) {
			t.Errorf("%s.Members([3]) = %v, want [3]", name, got)
		}
	}
}

// TestEveryStrategyToleratedBelowBoundary is the paper's central claim in
// miniature: with f faulty processes running any registered strategy in an
// n = 3f+1 system, agreement (γ) and every other invariant must hold. The
// adaptive strategies run with the pipeline adversary Place builds
// installed — their retiming is clamped to [δ−ε, δ+ε], so A1–A3 hold by
// construction and the theorems owe them the same guarantees.
func TestEveryStrategyToleratedBelowBoundary(t *testing.T) {
	cfg := cfg7()
	for _, s := range faults.Strategies() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			w := exp.Workload{
				Cfg:             cfg,
				Rounds:          12,
				Seed:            5,
				CheckInvariants: true,
			}
			w.Faults, w.Adversary = faults.Place(s, cfg, nil, 5, 0)
			res, err := exp.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Invariants.Ok() {
				t.Errorf("strategy %s broke an invariant at f < n/3:\n%s", s.Name, res.Invariants.Summary())
			}
		})
	}
}

// TestCliqueSharesOnePlan verifies the collusion machinery: all members of a
// clique must target the same recipients with the same early/late split, so
// their arrival entries move together.
func TestCliqueSharesOnePlan(t *testing.T) {
	cfg := cfg7()
	members := faults.NewClique(cfg, 3, 42, faults.CliqueTuning{})
	if len(members) != 3 {
		t.Fatalf("NewClique built %d members, want 3", len(members))
	}
	// Run the clique against the algorithm and trace sends: for each round
	// and recipient, every member must have chosen the same edge.
	tr := &sendTracer{perRound: map[int]map[sim.ProcID]map[sim.ProcID]float64{}}
	mix := map[sim.ProcID]func() sim.Process{}
	for i, id := range []sim.ProcID{4, 5, 6} {
		p := members[i]
		mix[id] = func() sim.Process { return p }
	}
	res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 6, Faults: mix, Seed: 2, Observers: []sim.Observer{tr}})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	rounds := 0
	for round, byMember := range tr.perRound {
		if len(byMember) < 3 {
			continue // partial round at the horizon
		}
		rounds++
		// Compare each member's per-recipient send times. The plan lives in
		// local time and the members' physical clocks drift apart, so real
		// times can differ by the drift envelope (~ρ·t); collusion means the
		// same pull direction per recipient and the same intensity, which
		// separates cleanly from an uncoordinated plan (jitter draws differ
		// by up to 1.6ms, far above the drift envelope).
		const driftEnvelope = 5e-4
		var ref map[sim.ProcID]float64
		for _, sends := range byMember {
			if ref == nil {
				ref = sends
				continue
			}
			for to, at := range sends {
				want, ok := ref[to]
				if !ok {
					continue
				}
				if math.Abs(at-want) > driftEnvelope {
					t.Fatalf("round %d: clique members disagree on send time to p%d: %v vs %v", round, to, at, want)
				}
			}
		}
	}
	if rounds < 3 {
		t.Fatalf("observed only %d complete clique rounds", rounds)
	}
}

// sendTracer records, per (round-ish bucket, sender, recipient), the real
// send time of ordinary messages from faulty processes.
type sendTracer struct {
	perRound map[int]map[sim.ProcID]map[sim.ProcID]float64
}

func (tr *sendTracer) OnDeliver(e *sim.Engine, m sim.Message) {
	if m.Kind != sim.KindOrdinary || !e.Faulty(m.From) {
		return
	}
	round := int(m.SentAt + 0.5) // P = 1s: nearest round index
	if tr.perRound[round] == nil {
		tr.perRound[round] = map[sim.ProcID]map[sim.ProcID]float64{}
	}
	if tr.perRound[round][m.From] == nil {
		tr.perRound[round][m.From] = map[sim.ProcID]float64{}
	}
	tr.perRound[round][m.From][m.To] = float64(m.SentAt)
}

func TestRandomTimingClampsHostileParameters(t *testing.T) {
	cfg := cfg7()
	for _, tc := range []struct{ spread, bias float64 }{
		{math.Inf(1), 0},
		{math.NaN(), math.NaN()},
		{1e9, -1e9},
		{-0.5, 0.3},
	} {
		mix := map[sim.ProcID]func() sim.Process{
			6: func() sim.Process { return faults.NewRandomTiming(cfg, 1, tc.spread, tc.bias) },
		}
		res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 6, Faults: mix, Seed: 2, CheckInvariants: true})
		if err != nil {
			t.Fatalf("spread=%v bias=%v: %v", tc.spread, tc.bias, err)
		}
		if !res.Invariants.Ok() {
			t.Errorf("spread=%v bias=%v: invariants broken:\n%s", tc.spread, tc.bias, res.Invariants.Summary())
		}
	}
}

// TestStrategyDeterminism: the same strategy, seed and workload must replay
// to an identical skew trajectory — the conformance matrix and the golden
// tables depend on it.
func TestStrategyDeterminism(t *testing.T) {
	cfg := cfg7()
	for _, name := range []string{"clique", "random-timing", "noise"} {
		s, err := faults.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func() float64 {
			mix, _ := faults.Place(s, cfg, nil, 9, 0)
			res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 8, Faults: mix, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			return res.Skew.Max()
		}
		if a, b := run(), run(); a != b {
			t.Errorf("strategy %s not deterministic: %v vs %v", name, a, b)
		}
	}
}

// TestMixBuildsSharedInstances: Place must hand each member its own
// automaton exactly once (pointer identity preserved for shared-state
// strategies), on the conventional top-f placement when given no members.
func TestMixBuildsSharedInstances(t *testing.T) {
	cfg := cfg7()
	s, err := faults.ByName("clique")
	if err != nil {
		t.Fatal(err)
	}
	mix, adv := faults.Place(s, cfg, nil, 3, 0)
	if len(mix) != 2 || mix[5] == nil || mix[6] == nil || adv != nil {
		t.Fatalf("Place(clique) = %d entries, adversary %v; want members 5 and 6, no adversary", len(mix), adv)
	}
	for id, mk := range mix {
		if mk() != mk() {
			t.Errorf("builder for p%d returns fresh instances; shared clique state would be lost", id)
		}
	}
}

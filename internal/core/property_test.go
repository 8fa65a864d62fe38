package core_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/sim"
)

// TestAgreementPropertyAcrossSeeds: for random seeds, delay models and fault
// mixes within spec, Theorem 16 and Theorem 4(a) must hold. This is the
// repository's broadest invariant check.
func TestAgreementPropertyAcrossSeeds(t *testing.T) {
	cfg := defaultCfg(7, 2)
	f := func(seed int64, delayPick, faultPick uint8) bool {
		var delay sim.DelayModel
		switch delayPick % 4 {
		case 0:
			delay = sim.UniformDelay{Delta: cfg.Delta, Eps: cfg.Eps}
		case 1:
			delay = sim.ConstantDelay{Delta: cfg.Delta}
		case 2:
			delay = sim.ExtremalDelay{Delta: cfg.Delta, Eps: cfg.Eps}
		default:
			delay = sim.PerLinkDelay{Delta: cfg.Delta, Eps: cfg.Eps, Seed: seed}
		}
		mix := map[sim.ProcID]func() sim.Process{}
		switch faultPick % 4 {
		case 0: // none
		case 1:
			mix[5] = func() sim.Process { return faults.Silent{} }
			mix[6] = func() sim.Process { return faults.Silent{} }
		case 2:
			mix[5] = func() sim.Process { return &faults.TwoFaced{Cfg: cfg, Lead: 3e-3, Lag: 3e-3} }
			mix[6] = func() sim.Process { return &faults.StaleReplay{Cfg: cfg, Offset: 4e-3} }
		default:
			mix[0] = func() sim.Process { return &faults.Noise{Cfg: cfg, Burst: 2} }
		}
		res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 8, Seed: seed, Faults: mix, Delay: delay})
		if err != nil {
			return false
		}
		return res.Skew.Max() <= cfg.Gamma() &&
			res.Rounds.MaxAbsAdj(0) <= cfg.AdjBound() &&
			res.Validity.WorstViolation() <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestRejoinerUnderByzantineNoise: reintegration must work while a noise
// fault babbles through the gathering phase (the rejoiner plus the noise
// process together use up the f=2 budget).
func TestRejoinerUnderByzantineNoise(t *testing.T) {
	cfg := defaultCfg(7, 2)
	var rj *core.Rejoiner
	res, err := exp.Run(exp.Workload{
		Cfg:    cfg,
		Rounds: 20,
		Faults: map[sim.ProcID]func() sim.Process{
			5: func() sim.Process { return &faults.Noise{Cfg: cfg, Burst: 3} },
			6: func() sim.Process {
				rj = core.NewRejoiner(cfg, 55.5)
				return rj
			},
		},
		StartOverride: map[sim.ProcID]clock.Real{6: 4.7},
		Seed:          13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rj.Joined() {
		t.Fatal("rejoiner never joined under noise")
	}
	lt, ok := res.LocalTime(6, res.Horizon)
	if !ok {
		t.Fatal("no rejoiner local time")
	}
	for _, p := range res.NonfaultyIDs() {
		o, ok := res.LocalTime(p, res.Horizon)
		if !ok {
			continue
		}
		if d := math.Abs(float64(lt - o)); d > cfg.Gamma() {
			t.Errorf("rejoiner offset %v from p%d exceeds γ", d, p)
		}
	}
}

// TestFaultFreeSingleton: the degenerate n=1, f=0 system must tick rounds
// against itself without error (its own broadcast is its only input).
func TestFaultFreeSingleton(t *testing.T) {
	cfg := defaultCfg(1, 0)
	res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Process(0).(*core.Proc)
	if p.Round() < 5 {
		t.Errorf("singleton stalled at round %d", p.Round())
	}
	if v := res.Validity.WorstViolation(); v > 0 {
		t.Errorf("singleton validity violated by %v", v)
	}
}

// TestT0Offset: shifting T⁰ must not change behavior beyond the offset.
func TestT0Offset(t *testing.T) {
	base := defaultCfg(4, 1)
	shifted := base
	shifted.T0 = 1000
	rBase, err := exp.Run(exp.Workload{Cfg: base, Rounds: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rShift, err := exp.Run(exp.Workload{Cfg: shifted, Rounds: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := rBase.Rounds.BetaSeries()
	b := rShift.Rounds.BetaSeries()
	if len(a) != len(b) {
		t.Fatalf("round counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Errorf("round %d: β %v vs %v under T⁰ shift", i, a[i], b[i])
		}
	}
}

// TestLargeSystem: n=31, f=10 — the algorithm scales in n with the same
// guarantees.
func TestLargeSystem(t *testing.T) {
	cfg := defaultCfg(31, 10)
	mix := map[sim.ProcID]func() sim.Process{}
	for i := 0; i < 10; i++ {
		id := sim.ProcID(30 - i)
		mix[id] = func() sim.Process { return &faults.TwoFaced{Cfg: cfg, Lead: 3e-3, Lag: 3e-3} }
	}
	res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 8, Faults: mix, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Skew.Max(); got > cfg.Gamma() {
		t.Errorf("skew %v exceeds γ %v at n=31 with 10 two-faced faults", got, cfg.Gamma())
	}
}

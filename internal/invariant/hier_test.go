package invariant_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/invariant"
	"repro/internal/sim"
)

// TestHierAgreementContainment holds the checker's shortcut — the global
// spread from Engine.LocalTimeSpread, the per-cluster pass only when that
// spread exceeds γ_in — to the per-cluster path, which an all-false Exclude
// forces, on crafted local times: three clusters of three processes whose
// corrections are the local times at t = 0. Violations, MaxSpread and the
// check count must agree in each case.
func TestHierAgreementContainment(t *testing.T) {
	const gammaIn, gamma = 1e-3, 2.5e-3
	cases := []struct {
		name string
		corr [9]clock.Local
		want []string // the Detail prefix of each violation recorded
	}{
		{"global within γ_in",
			[9]clock.Local{0, 1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 6e-4, 7e-4, 8e-4},
			nil},
		{"global beyond γ_in, every cluster tight",
			[9]clock.Local{0, 1e-4, 2e-4, 1.5e-3, 1.6e-3, 1.7e-3, 3e-3, 3.1e-3, 3.2e-3},
			[]string{"global skew", "global skew"}},
		{"one cluster beyond γ_in",
			[9]clock.Local{0, 1e-4, 2e-4, 3e-4, 2.3e-3, 4e-4, 5e-4, 6e-4, 7e-4},
			[]string{"cluster 1 skew", "cluster 1 skew"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := crafted(t, c.corr[:])
			short := invariant.NewHierAgreement(gamma, gammaIn, 3, 0)
			full := invariant.NewHierAgreement(gamma, gammaIn, 3, 0)
			full.Exclude = make([]bool, 3)
			for _, pre := range []bool{true, false} {
				short.Sample(eng, pre)
				full.Sample(eng, pre)
			}
			if !reflect.DeepEqual(short.Violations(), full.Violations()) {
				t.Errorf("violations: shortcut %v, per-cluster %v", short.Violations(), full.Violations())
			}
			if math.Float64bits(short.MaxSpread()) != math.Float64bits(full.MaxSpread()) || short.Checked() != full.Checked() {
				t.Errorf("shortcut (spread %v, %d checked), per-cluster (spread %v, %d checked)",
					short.MaxSpread(), short.Checked(), full.MaxSpread(), full.Checked())
			}
			got := full.Violations()
			if len(got) != len(c.want) || full.Checked() != 2 {
				t.Fatalf("%d checked, violations %v; want 2 checked, %d violations", full.Checked(), got, len(c.want))
			}
			for i, v := range got {
				if !strings.HasPrefix(v.Detail, c.want[i]) {
					t.Errorf("violation %d: %q, want %q", i, v.Detail, c.want[i])
				}
			}
		})
	}
}

// crafted builds an engine at t = 0 whose processes hold the given
// corrections on identical drift-free clocks.
func crafted(t *testing.T, corr []clock.Local) *sim.Engine {
	t.Helper()
	n := len(corr)
	cfg := sim.Config{
		Procs:   make([]sim.Process, n),
		Clocks:  make([]clock.Clock, n),
		StartAt: make([]clock.Real, n),
		Delay:   sim.ConstantDelay{Delta: 1e-3},
	}
	for i, c := range corr {
		cfg.Procs[i] = &corrProc{corr: c}
		cfg.Clocks[i] = clock.Linear(0, 1)
	}
	eng, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

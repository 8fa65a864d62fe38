package exp

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exp/runner"
	"repro/internal/faults"
	"repro/internal/sim"
)

// TestConformanceMatrix is the executable form of the acceptance claim: the
// E17 grid must show every invariant holding for every registered adversary
// at f < n/3, and the E17b sharpness check must show agreement breaking for
// at least one strategy at f ≥ n/3. (Run in CI under -race as well; the
// sweep fans the matrix across the worker pool.)
func TestConformanceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("the conformance matrix is integration-sized")
	}
	e, err := ByID("E17")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("E17 produced %d tables, want 2", len(tables))
	}
	matrix, sharp := tables[0], tables[1]

	gridPoints := 3
	if SweepTier() >= TierFull {
		gridPoints = 4
	}
	if SweepTier() >= TierStress {
		gridPoints += 2 // the nightly n ∈ {31, 63} rows (one aggregated row per cell)
	}
	wantRows := len(faults.ScheduleDriven()) * gridPoints * 2
	if len(matrix.Rows) != wantRows {
		t.Errorf("matrix has %d rows, want %d (schedule-driven strategies × grid × delays)", len(matrix.Rows), wantRows)
	}
	for _, row := range matrix.Rows {
		for _, cell := range row {
			if cell == "VIOLATED" {
				t.Errorf("conformance violated at f < n/3: %v", row)
			}
		}
	}

	broken := 0
	for _, row := range sharp.Rows {
		if row[len(row)-1] == "broken" {
			broken++
		}
	}
	if broken == 0 {
		t.Error("sharpness check found no agreement break at f ≥ n/3")
	}
}

// FuzzAdversaryTiming searches the random-timing adversary's schedule space
// for a parameterization that breaks a theorem invariant at f < n/3. The
// paper says none exists: any counterexample the mutation engine finds is
// either an implementation bug or a refutation. The seed corpus starts from
// the schedules that stress reduce_f hardest — edge-pinned offsets at ±(β+ε)
// and the clamp extremes.
func FuzzAdversaryTiming(f *testing.F) {
	cfg := core.Config{Params: analysis.Default(7, 2)}
	edge := cfg.Beta + cfg.Eps
	f.Add(int64(1), 4e-3, 0.0)     // mid-window jitter
	f.Add(int64(2), edge, edge)    // jittered late edge-riding
	f.Add(int64(3), edge, -edge)   // jittered early edge-riding
	f.Add(int64(4), 0.0, edge)     // deterministic late pin
	f.Add(int64(5), 0.0, -edge)    // deterministic early pin
	f.Add(int64(6), 0.25, -0.25)   // clamp extremes (P/4)
	f.Add(int64(7), 1e-9, 12.5e-3) // beyond the window, nearly no jitter
	f.Fuzz(func(t *testing.T, seed int64, spread, bias float64) {
		mix := make(map[sim.ProcID]func() sim.Process, cfg.F)
		for i, id := range faults.TopIDs(cfg.F, cfg.N) {
			adv := faults.NewRandomTiming(cfg, runner.DeriveSeed(seed, i), spread, bias)
			mix[id] = func() sim.Process { return adv }
		}
		res, err := Run(Workload{
			Cfg:             cfg,
			Rounds:          8,
			Faults:          mix,
			Seed:            seed,
			CheckInvariants: true,
		})
		if err != nil {
			t.Fatalf("seed=%d spread=%v bias=%v: %v", seed, spread, bias, err)
		}
		if !res.Invariants.Ok() {
			t.Fatalf("seed=%d spread=%v bias=%v: invariant broken at f < n/3:\n%s",
				seed, spread, bias, res.Invariants.Summary())
		}
	})
}

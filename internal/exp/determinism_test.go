package exp

import (
	"strings"
	"testing"

	"repro/internal/exp/runner"
)

// renderExperiment runs one registered experiment and renders every table it
// produces, text and markdown, into one string.
func renderExperiment(t *testing.T, id string) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tbl := range tables {
		tbl.Render(&b)
		tbl.Markdown(&b)
	}
	return b.String()
}

// TestSweepDeterminism is the regression test for the parallel sweep
// runner: E05 (fault sweep, 22 workloads), E13 (ε/ρ sweep, 9 workloads)
// and E18 (the adaptive-adversary lower-bound search — its skewmax and
// splitter strategies react to live engine state, so this is also the
// determinism gate for the engine's adversary retiming) must
// render byte-identical tables when run serially and with 1, 2, and 8
// workers. Worker count may change only wall-clock time, never results.
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-sized")
	}
	defer runner.SetDefaultWorkers(0)
	for _, id := range []string{"E05", "E13", "E18", "E20"} {
		t.Run(id, func(t *testing.T) {
			// workers=1 takes the runner's strictly serial path and is
			// the reference rendering.
			runner.SetDefaultWorkers(1)
			serial := renderExperiment(t, id)
			if serial == "" {
				t.Fatal("serial run rendered nothing")
			}
			for _, workers := range []int{1, 2, 8} {
				runner.SetDefaultWorkers(workers)
				if got := renderExperiment(t, id); got != serial {
					t.Errorf("%s with %d workers differs from serial run:\n--- serial ---\n%s\n--- %d workers ---\n%s",
						id, workers, serial, workers, got)
				}
			}
		})
	}
}

// TestSweepErrorPropagation checks that a failing workload aborts the sweep
// with a labeled error instead of producing a partial table.
func TestSweepErrorPropagation(t *testing.T) {
	s := Sweep[int]{
		Name:   "bad-sweep",
		Params: []int{1, 2, 3},
		Build: func(p int) (Workload, error) {
			return Workload{}, nil // no processes: exp.Run rejects it
		},
		Each: func(int, Workload, *Result) error {
			t.Error("Each called for a failed trial")
			return nil
		},
	}
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "bad-sweep") {
		t.Fatalf("want labeled error, got %v", err)
	}
}

package clocksync_test

import (
	"testing"

	clocksync "repro"
)

// runAllocs is what one Run(2) of the cluster New(n, f, opts...) builds
// allocates, averaged over a few runs after a warm-up one.
func runAllocs(t *testing.T, n, f int, opts ...clocksync.Option) float64 {
	t.Helper()
	c, err := clocksync.New(n, f, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(3, func() {
		if _, err := c.Run(2); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunAllocsFlatInN holds what a facade run allocates to a count that
// does not grow with n: every process's physical clock, automaton and ARR
// come from one slab per kind (clock.Clocks, core.NewProcs, hier.Build).
// Built one by one they cost about four allocations per process, and the
// gaps read 3,634 (flat) and 1,694 (two-tier). With the slabs the flat run
// at n = 1009 allocates 2 more than at n = 101 (73 against 71), and 4 more
// with every clock a random walk (75 against 71; a generator per clock made
// the gap 908). The two-tier gap reads 62 (232 against 170): per cluster,
// not per process — each representative's outer instance (its ARR and the
// Round, 2) and one Discipline payload per outer round it relays, over 23
// clusters against 11. The slack leaves room for that and for a buffer or
// two, and none for anything built per process.
func TestRunAllocsFlatInN(t *testing.T) {
	for _, tc := range []struct {
		name         string
		small, large int
		f            func(n int) int
		opts         []clocksync.Option
		slack        float64
	}{
		// f = (n−1)/3, the most the flat mesh tolerates.
		{"flat k=2", 101, 1009, func(n int) int { return (n - 1) / 3 }, []clocksync.Option{clocksync.WithShards(2)}, 10},
		// Every clock a random walk, each drawn from one pooled generator.
		{"flat k=2 random drift", 101, 1009, func(n int) int { return (n - 1) / 3 },
			[]clocksync.Option{clocksync.WithShards(2), clocksync.WithRandomDrift()}, 10},
		// f = 0, as the two-tier benchmark workload runs it.
		{"two-tier", 121, 529, func(int) int { return 0 }, []clocksync.Option{clocksync.WithClusters(0)}, 80},
	} {
		t.Run(tc.name, func(t *testing.T) {
			small := runAllocs(t, tc.small, tc.f(tc.small), tc.opts...)
			large := runAllocs(t, tc.large, tc.f(tc.large), tc.opts...)
			t.Logf("n = %d: %.0f allocations a run, n = %d: %.0f", tc.small, small, tc.large, large)
			if large-small > tc.slack {
				t.Errorf("a run at n = %d allocates %.0f more than at n = %d, want at most %.0f: per-process state is built one object at a time",
					tc.large, large-small, tc.small, tc.slack)
			}
		})
	}
}

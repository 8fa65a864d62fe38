package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

// settled waits up to a second for the goroutine count to fall back to
// before and reports whether it did: a worker that has signalled its exit
// may take a moment to be gone.
func settled(before int) bool {
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// TestCrewLeaksNoGoroutine: a Run over k ≥ 2 partitions starts its crew and
// stops it on every way out — at the horizon, after the step limit, after a
// panicking Receive — so no worker outlives the Run. A second Run of the
// same engine starts a crew of its own and delivers the same as one Run to
// the later horizon.
func TestCrewLeaksNoGoroutine(t *testing.T) {
	const n = 32
	for _, k := range []int{2, 4} {
		for _, tc := range []struct {
			name string
			cfg  func() Config
			want string // "" for success
		}{
			{"horizon", func() Config { return shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil) }, ""},
			{"step limit", func() Config {
				cfg := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
				cfg.MaxSteps = 700
				return cfg
			}, "sim: step limit 700 exceeded"},
			{"panic", func() Config {
				cfg := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
				cfg.Procs[n-1] = &bomb{}
				return cfg
			}, "panicked: boom"},
		} {
			cfg := tc.cfg()
			cfg.Shards = k
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			err = e.Run(0.01)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("k=%d %s: Run = %v", k, tc.name, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("k=%d %s: Run = %v; want an error containing %q", k, tc.name, err, tc.want)
			}
			if e.crew != nil {
				t.Fatalf("k=%d %s: Run returned with its crew still hired", k, tc.name)
			}
			if !settled(before) {
				t.Fatalf("k=%d %s: %d goroutines before Run, %d a second after it returned", k, tc.name, before, runtime.NumGoroutine())
			}
		}

		// Two Runs, two crews, one execution.
		one := runOnShards(t, shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil), k, 0.02)
		cfg := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
		cfg.Shards = k
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		for _, h := range []clock.Real{0.007, 0.02} {
			if err := e.Run(h); err != nil {
				t.Fatal(err)
			}
		}
		if !settled(before) {
			t.Fatalf("k=%d: goroutines left after two Runs: %d before, %d after", k, before, runtime.NumGoroutine())
		}
		if e.Steps() != one.steps || e.MessagesSent() != one.sent {
			t.Fatalf("k=%d: two Runs delivered %d steps, %d messages; one Run %d, %d", k, e.Steps(), e.MessagesSent(), one.steps, one.sent)
		}
		for i, p := range cfg.Procs {
			if b := p.(*shardBeacon); b.digest != one.digests[i] || b.count != one.counts[i] {
				t.Fatalf("k=%d: process %d's deliveries differ between two Runs and one", k, i)
			}
		}
	}
}

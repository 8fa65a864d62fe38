package sim

import (
	"runtime"
	"strings"
	"sync/atomic"
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

// crewProbe is a beacon that shows who drains a window: process 0, on Run's
// goroutine (partition 0 is always its own), naps at its first delivery
// after each cut, and the last process counts the windows in which it is
// delivered to during that nap — which only a worker can do.
type crewProbe struct {
	shardBeacon
	napper bool
	s      *probeState
}

// probeState is what the probes and the test's sampler share. cuts, napped
// and watched move only between a fork and the join that follows it.
type probeState struct {
	cuts, napped, watched int
	napping               atomic.Bool
	naps, overlaps        int
}

func (p *crewProbe) Receive(ctx *Context, m Message) {
	switch s := p.s; {
	case p.napper && s.napped != s.cuts:
		s.napped = s.cuts
		s.naps++
		s.napping.Store(true)
		time.Sleep(2 * time.Millisecond)
		s.napping.Store(false)
	case !p.napper && s.watched != s.cuts && s.napping.Load():
		s.watched = s.cuts
		s.overlaps++
	}
	p.shardBeacon.Receive(ctx, m)
}

// TestCrewWakesParkedWorkers: a sampler that sleeps well past crewSpin at
// every cut lets the workers park between windows, so each next window's
// fork must wake them (TestCrewLeaksNoGoroutine's windows follow one another
// within the spin). Over k = 2 and 4 partitions, to one horizon and as two
// Runs, the last partition must be drained by a woken worker, while Run's
// goroutine naps in partition 0, in at least a quarter of the windows; the
// run must deliver what a k = 1 run delivers and leave no goroutine behind.
// A fork that woke no one would still deliver the same (Run's goroutine
// claims every partition a worker leaves), but it fails the overlap count,
// and at dismiss it hangs.
func TestCrewWakesParkedWorkers(t *testing.T) {
	const n, horizon, every = 32, 0.01, 1e-4 // every < δ−ε: a sample point in each window
	delay := UniformDelay{Delta: 4e-4, Eps: 1e-4}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 4))) // a worker per partition
	want := runOnShards(t, shardWorkload(n, delay, nil), 1, horizon)
	for _, k := range []int{2, 4} {
		for _, stops := range [][]clock.Real{{horizon}, {0.004, horizon}} {
			cfg := shardWorkload(n, delay, nil)
			cfg.Shards = k
			s := &probeState{}
			for _, i := range []int{0, n - 1} {
				cfg.Procs[i] = &crewProbe{shardBeacon: *cfg.Procs[i].(*shardBeacon), napper: i == 0, s: s}
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			last := -1
			if err := e.Observe(samplerFunc(func(e *Engine) {
				e.SampleAt(e.Now() + every)
				if w := e.Windows(); w != last && e.crew != nil {
					last = w
					s.cuts++
					time.Sleep(4 * crewSpin)
				}
			})); err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			for _, h := range stops {
				if err := e.Run(h); err != nil {
					t.Fatal(err)
				}
			}
			if s.cuts < e.Windows()/2 || s.overlaps < s.naps/4 {
				t.Fatalf("k=%d, %d Runs: %d windows, the sampler slept at %d cuts; process %d was delivered to during %d of process 0's %d naps",
					k, len(stops), e.Windows(), s.cuts, n-1, s.overlaps, s.naps)
			}
			if !settled(before) {
				t.Fatalf("k=%d, %d Runs: %d goroutines before, %d after", k, len(stops), before, runtime.NumGoroutine())
			}
			if e.Steps() != want.steps || e.MessagesSent() != want.sent {
				t.Fatalf("k=%d, %d Runs: %d steps, %d messages; k = 1: %d, %d", k, len(stops), e.Steps(), e.MessagesSent(), want.steps, want.sent)
			}
			for i, p := range cfg.Procs {
				if d, c := p.(interface{ fold() (uint64, int) }).fold(); d != want.digests[i] || c != want.counts[i] {
					t.Fatalf("k=%d, %d Runs: process %d's deliveries differ from k = 1", k, len(stops), i)
				}
			}
			t.Logf("k=%d, %d Runs: %d windows, %d cuts slept, %d of %d naps overlapped", k, len(stops), e.Windows(), s.cuts, s.overlaps, s.naps)
		}
	}
}

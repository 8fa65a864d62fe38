package sim_test

import (
	"os"
	"path/filepath"
	"testing"

	clocksync "repro"
	"repro/internal/exp"
	"repro/internal/exp/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestCopyCensus takes the census of process-windows — a process's due
// events in one window — by how a windowed engine delivered them: as
// ReceiveCopies batches, one Receive a copy because two copies shared a
// sender, or one Receive a copy because the process is no CopyReceiver.
// It covers the first op of the repository benchmark's facade workloads at
// seed 1, the scenario corpus, E05 and — in neither -short mode nor under
// the race detector, where they take a minute — E20 and the whole
// experiment suite, logs the counts (-v), and holds the split the design
// promises: the flat meshes batch, the two-tier hierarchy does not opt in,
// and E05's faulty senders repeat. It counts the fan-outs kept as stored
// rows too, and fails on any: every delay model these runs use declares its
// draws per copy, so every fan-out, lossy ones included, is a drawn row.
func TestCopyCensus(t *testing.T) {
	take := func(name string, run func() error) (batched, repeated, perCopy int64) {
		b0, r0, p0 := sim.Census()
		s0 := sim.StoredRows()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b1, r1, p1 := sim.Census()
		batched, repeated, perCopy = b1-b0, r1-r0, p1-p0
		stored := sim.StoredRows() - s0
		t.Logf("%-16s batched %9d  repeated sender %7d  not opted in %9d  stored rows %d", name, batched, repeated, perCopy, stored)
		if stored != 0 {
			t.Errorf("%s: %d fan-outs kept as stored rows, want none", name, stored)
		}
		return
	}
	facade := func(n, f, rounds int, opts ...clocksync.Option) func() error {
		return func() error {
			c, err := clocksync.New(n, f, append(opts, clocksync.WithSeed(runner.DeriveSeed(1, 0)))...)
			if err == nil {
				_, err = c.Run(rounds)
			}
			return err
		}
	}
	experiments := func(ids ...string) func() error {
		return func() error {
			for _, e := range exp.All() {
				for _, id := range ids {
					if id == e.ID || id == "all" {
						if _, err := e.Run(); err != nil {
							return err
						}
					}
				}
			}
			return nil
		}
	}
	b, _, p := take("flat_n7_faulty", facade(7, 2, 5000,
		clocksync.WithFault(6, clocksync.FaultTwoFaced), clocksync.WithFault(5, clocksync.FaultSilent)))
	if b == 0 || p == 0 {
		t.Error("flat_n7_faulty: want batches of the nonfaulty processes and the faulty ones' windows one copy at a time")
	}
	for _, w := range []struct {
		name         string
		n, f, rounds int
		opts         []clocksync.Option
	}{
		{"flat_n101_seq", 101, 33, 20, nil},
		{"flat_n1009_k2", 1009, 336, 4, []clocksync.Option{clocksync.WithShards(2)}},
	} {
		if b, r, p := take(w.name, facade(w.n, w.f, w.rounds, w.opts...)); b == 0 || r != 0 || p != 0 {
			t.Errorf("%s: want every process-window batched", w.name)
		}
	}
	if b, r, _ := take("twotier_n529_seq", facade(529, 0, 10, clocksync.WithClusters(0))); b != 0 || r != 0 {
		t.Error("twotier_n529_seq: hier.Member does not opt in")
	}
	take("scenario_corpus", func() error {
		files, err := filepath.Glob("../../scenarios/*.json")
		if err != nil || len(files) == 0 {
			t.Fatalf("scenario corpus: %v, %d files", err, len(files))
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			s, err := scenario.Parse(data)
			if err != nil {
				return err
			}
			if _, err := scenario.Run(s); err != nil {
				return err
			}
		}
		return nil
	})
	if _, r, _ := take("E05", experiments("E05")); r == 0 {
		t.Error("E05: want its faulty senders' repeated copies sent down the sorted path")
	}
	if !testing.Short() && !raceDetector {
		take("E20", experiments("E20"))
		take("experiment_suite", experiments("all"))
	}
}

// raceDetector is set in a build with the race detector (race_test.go).
var raceDetector bool

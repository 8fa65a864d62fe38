package sim_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/hier"
)

// TestBatchBuffersOnlyForCopyReceivers: a partition makes the buffers of a
// CopyReceiver's batches only when it owns one. A windowed two-tier run,
// whose hier.Members do not opt in, holds none; a flat run of core.Procs
// holds a tile's batches — a system's senders and times for each process of
// the tile — on each partition.
func TestBatchBuffersOnlyForCopyReceivers(t *testing.T) {
	const k = 2
	s, err := hier.Build(hier.Default(64, 8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(exp.Workload{Hier: s, Rounds: 2, Seed: 20, Shards: k})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards() != k {
		t.Fatalf("the two-tier run took %d partitions, want %d", res.Shards(), k)
	}
	if got := res.BatchBuffers(); got != 0 {
		t.Fatalf("a windowed two-tier run holds room for %d batch entries, want none", got)
	}
	const n = 7
	res, err = exp.Run(exp.Workload{Cfg: core.Config{Params: analysis.Default(n, 2)}, Rounds: 2, Seed: 20, Shards: k})
	if err != nil {
		t.Fatal(err)
	}
	// Each partition: a tile of batches — n senders and times for each of
	// its processes, 4 and 3.
	if got, want := res.BatchBuffers(), 2*4*n+2*3*n; got != want {
		t.Fatalf("a windowed flat run holds room for %d batch entries, want %d", got, want)
	}
}

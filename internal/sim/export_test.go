package sim

import "sync/atomic"

// TablePasses reports how many times the clock table evaluated the current
// instant's configuration, and how many of those evaluations scanned every
// row rather than reading the two certificated extremes.
func (e *Engine) TablePasses() (evals, scans uint64) { return e.tbl.evals, e.tbl.scans }

// Shards returns the number of partitions: 0 on the time-major engine.
func (e *Engine) Shards() int { return len(e.parts) }

// Shard returns partition i of a windowed engine (treat as read-only).
func (e *Engine) Shard(i int) *Engine { return e.parts[i] }

// storeRows makes every fan-out of windowed engine e a stored row, as if its
// delay model declared no draws per copy: the seam that holds drawn rows to
// the stored rows they replace.
func (e *Engine) storeRows() {
	for _, p := range e.parts {
		p.draws = -1
	}
}

// CheckRedraw is checkRedraw (redraw_test.go) for the external test package,
// which can name delay models of packages that import this one.
var CheckRedraw = checkRedraw

// The package's tests take the census of process-windows (shard.go).
func init() { census = new([4]atomic.Int64) }

// Census returns how many process-windows the package's tests have had
// delivered as ReceiveCopies batches, one step each because their copies
// repeated a sender, and one step each because their process is not a
// CopyReceiver.
func Census() (batched, repeated, perCopy int64) {
	return census[censusBatched].Load(), census[censusRepeated].Load(), census[censusPerCopy].Load()
}

// StoredRows returns how many fan-outs the package's tests have had kept as
// stored rows.
func StoredRows() int64 { return census[censusStored].Load() }

// BatchBuffers returns the room windowed engine e's partitions hold for
// CopyReceiver batches: the capacities of their senders, times and stamps,
// summed.
func (e *Engine) BatchBuffers() int {
	c := 0
	for _, p := range e.parts {
		c += cap(p.part.from) + cap(p.part.at) + cap(p.part.stamp)
	}
	return c
}

package sim

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

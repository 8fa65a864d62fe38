package sim

// TablePasses reports how many times the clock table evaluated the current
// instant's configuration, and how many of those evaluations scanned every
// row rather than reading the two certificated extremes.
func (e *Engine) TablePasses() (evals, scans uint64) { return e.tbl.evals, e.tbl.scans }

// Shards returns the number of partitions: 0 on the time-major engine.
func (e *Engine) Shards() int { return len(e.parts) }

// Shard returns partition i of a windowed engine (treat as read-only).
func (e *Engine) Shard(i int) *Engine { return e.parts[i] }

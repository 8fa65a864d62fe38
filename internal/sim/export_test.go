package sim

import (
	"sync/atomic"
	"testing"

	"repro/internal/clock"
)

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
		p.counter, p.draws = nil, -1
	}
}

// The doubles of the delay-model harness (simtest.CheckDelayModel): an
// honest model that undershoots the lookahead for copies to one recipient,
// and four that break a declaration — draws per copy, a span one ulp too
// narrow at both ends, a span [lo, hi] the copies leave, and a SampleAll
// whose delays depend on the recipient.
func Undershoot(d UniformDelay, to ProcID) CounterDelayModel { return undershoot{d, to} }
func Miscounted(d UniformDelay) CounterDelayModel            { return miscounted{d} }
func Narrowed(m CounterDelayModel) CounterDelayModel         { return narrowed{m} }
func Misspan(d UniformDelay, lo, hi float64) CounterDelayModel {
	return misspan{d, lo, hi}
}
func RecipientBatch(d UniformDelay) CounterDelayModel { return recipientBatch{d} }

// CheckRedraw is checkRedraw (redraw_test.go) for the external test package,
// which can name delay models of packages that import this one.
var CheckRedraw = checkRedraw

// The package's tests take the census (shard.go).
func init() { census = new([censusKinds]atomic.Int64) }

// Census returns how many process-windows the package's tests have had
// delivered as ReceiveCopies batches, one step each because a sender had two
// candidate rows in the window, and one step each because their process is
// not a CopyReceiver.
func Census() (batched, repeated, perCopy int64) {
	return census[censusBatched].Load(), census[censusRepeated].Load(), census[censusPerCopy].Load()
}

// StoredRows returns how many fan-outs the package's tests have had kept as
// stored rows.
func StoredRows() int64 { return census[censusStored].Load() }

// Copies returns how many copies the package's tests have had a windowed
// engine sample at send and redraw, and how many windows have run.
func Copies() (sampled, redrawn, windows int64) {
	return census[censusSampled].Load(), census[censusRedrawn].Load(), census[censusWindows].Load()
}

// RepeatWindows returns how many of those windows had a sender with two
// candidate rows, in a run with CopyReceivers.
func RepeatWindows() int64 { return census[censusRepeats].Load() }

// BatchBuffers returns the room windowed engine e's partitions hold for
// CopyReceiver batches: the capacities of their tiles' senders and times,
// summed.
func (e *Engine) BatchBuffers() int {
	c := 0
	for _, p := range e.parts {
		for i := range p.part.tb {
			c += cap(p.part.tb[i].from) + cap(p.part.tb[i].at)
		}
	}
	return c
}

// Header is a drawn row's sender, range [Lo, Hi), send time and extremes.
type Header struct {
	From, Lo, Hi ProcID
	SentAt       clock.Real
	Min, Max     float64
}

// DrawnHeaders runs n = 40 shardBeacons over delay on two partitions, window
// by window, fanning out as Broadcasts (block 0) or as Multicasts over
// blocks of block ids, and returns the header of every drawn row as the cut
// that published it left it, before a window read it.
func DrawnHeaders(t *testing.T, delay DelayModel, block int) []Header {
	cfg := shardWorkload(40, delay, nil)
	for _, p := range cfg.Procs {
		p.(*shardBeacon).block = block
	}
	cfg.Shards = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.enter()
	var out []Header
	seen := map[uint64]bool{}
	for more := true; more; {
		if more, err = e.window(4e-3); err != nil {
			t.Fatal(err)
		}
		for _, h := range e.part.board.live {
			if h.at == nil && !h.read && !seen[h.seq] {
				seen[h.seq] = true
				out = append(out, Header{ProcID(h.from), ProcID(h.lo), ProcID(h.lo + h.m), h.sentAt, h.min, h.max})
			}
		}
	}
	return out
}

package sim

import "repro/internal/clock"

// Ether models the §9.3 implementation substrate: an Ethernet-like datagram
// network. Broadcast is available but not reliable — each receiver has a
// bounded datagram buffer, and "if too many arrive at once, the old ones are
// overwritten". When all processes broadcast at (almost) the same instant,
// copies are lost in the traffic jam; staggering the broadcast times by p·σ
// (§9.3) avoids the loss.
//
// Concretely: a copy scheduled to arrive at real time a at receiver q is
// dropped if, counting arrivals at q within the window (a−Window, a], it
// would be the (Buffer+1)-th or later. This is the drop-new variant of the
// paper's overwrite-old buffer, a deliberate substitution — either variant
// loses exactly the colliding traffic, which is the phenomenon the experiment
// needs.
type Ether struct {
	// Window is the interval within which arrivals contend for buffer
	// slots (roughly the datagram service time times the buffer depth).
	Window clock.Real
	// Buffer is the number of datagrams a receiver can hold per window.
	Buffer int

	arrivals map[ProcID][]clock.Real
	dropped  int64
}

var _ Channel = (*Ether)(nil)

// NewEther builds an Ether channel with the given contention window and
// per-receiver buffer capacity.
func NewEther(window clock.Real, buffer int) *Ether {
	return &Ether{Window: window, Buffer: buffer, arrivals: make(map[ProcID][]clock.Real)}
}

// Route implements Channel.
func (e *Ether) Route(from, to ProcID, sentAt clock.Real, baseDelay float64) (clock.Real, bool) {
	at := sentAt + clock.Real(baseDelay)
	if from == to {
		// Loopback does not cross the wire; it never contends.
		return at, true
	}
	q := e.arrivals[to]
	// Drop bookkeeping older than the window to keep the slice short. The
	// slice is kept sorted, so this is a prefix scan.
	cutoff := at - e.Window
	i := 0
	for i < len(q) && q[i] <= cutoff {
		i++
	}
	q = q[i:]
	// Count arrivals contending with this one: the drop-new rule looks only
	// at datagrams already in the buffer when this one lands, i.e. arrivals
	// within (at−Window, at]. Copies scheduled to arrive *after* at must not
	// evict it — they are not in the buffer yet, and counting them would let
	// a copy routed first but arriving later push out the current one,
	// over-dropping the §9.3 broadcast storms.
	contending := 0
	for _, a := range q {
		if a > cutoff && a <= at {
			contending++
		}
	}
	if contending >= e.Buffer {
		e.dropped++
		e.arrivals[to] = q
		return 0, false
	}
	// Insert at its sorted position by shifting the (short) tail: arrivals
	// land almost in order, so this costs a step or two per copy, with no
	// allocation and no re-sort of the whole window.
	q = append(q, at)
	for j := len(q) - 1; j > 0 && q[j-1] > q[j]; j-- {
		q[j-1], q[j] = q[j], q[j-1]
	}
	e.arrivals[to] = q
	return at, true
}

// Dropped returns the number of copies lost to buffer contention.
func (e *Ether) Dropped() int64 { return e.dropped }

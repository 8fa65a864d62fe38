package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// crew is the windowed engine's workers for one Run over k ≥ 2 partitions:
// min(k, GOMAXPROCS) − 1 goroutines beside Run's own, which poll for the
// next window for crewSpin and then park on wake. A window's partitions are
// claimed one at a time off next, so each is drained by exactly one
// goroutine: Run's takes partition 0, each worker the next unclaimed one,
// and whoever finishes takes the next, so a worker slow to wake costs the
// window only the partitions the others drained meanwhile. Started once per
// Run, not once per window, the crew leaves a window's fork and join an
// epoch, a broadcast and a WaitGroup: no goroutine, closure or result slice
// per window. The window's bounds travel in the crew, published by the
// claim; errs[i] is partition i's outcome of the last window, published by
// the join.
type crew struct {
	e              *Engine
	hi, until, cut clock.Real
	next           atomic.Int32
	epoch          atomic.Uint32 // windows forked so far; dismiss adds one more
	quit           atomic.Bool
	mu             sync.Mutex // held to move epoch and to park on it
	wake           sync.Cond  // on mu; broadcast by fork
	errs           []error
	joined, exited sync.WaitGroup
}

// crewSpin is how long a worker polls for the next window before it parks:
// a fork within it finds the worker running, where waking a parked thread
// costs microseconds a small window cannot spare, and a longer cut costs a
// core no more than this.
const crewSpin = 50 * time.Microsecond

// hire starts partition 0's crew for a Run of e: helpers workers beside
// Run's goroutine, at least one.
func (e *Engine) hire(helpers int) *crew {
	k := len(e.parts)
	c := &crew{e: e, errs: make([]error, k)}
	c.wake.L = &c.mu
	c.next.Store(int32(k)) // nothing to claim before the first window
	c.exited.Add(helpers)
	for range helpers {
		go c.work()
	}
	return c
}

// work is a worker's loop: wait for the next window — polling for crewSpin,
// then parked on wake — claim its partitions, and repeat until dismissed.
func (c *crew) work() {
	defer c.exited.Done()
	seen := uint32(0) // the epoch at hire, whenever the goroutine starts
	for {
		for start := time.Now(); c.epoch.Load() == seen && time.Since(start) < crewSpin; {
			runtime.Gosched()
		}
		c.mu.Lock()
		for c.epoch.Load() == seen {
			c.wake.Wait()
		}
		c.mu.Unlock()
		// The epoch is read before quit: read after, it could be dismiss's
		// own, and the worker would park for good waiting for a fork that
		// never comes.
		seen = c.epoch.Load()
		if c.quit.Load() {
			return
		}
		c.claim()
	}
}

// claim drains unclaimed partitions of the window until none is left.
func (c *crew) claim() {
	for i := int(c.next.Add(1)) - 1; i < len(c.errs); i = int(c.next.Add(1)) - 1 {
		c.errs[i] = c.e.parts[i].drainSafe(i, c.hi, c.until, c.cut)
		c.joined.Done()
	}
}

// fork starts a window, or the crew's end: the epoch moves under mu, so a
// worker that found it unmoved is already waiting when the broadcast comes.
func (c *crew) fork() {
	c.mu.Lock()
	c.epoch.Add(1)
	c.mu.Unlock()
	c.wake.Broadcast()
}

// drain runs every partition's share of the window [m, hi) cut at cut and
// returns the error of the lowest-numbered partition that failed: every
// partition drains its share, so which one fails first in wall-clock time
// does not matter.
func (c *crew) drain(hi, until, cut clock.Real) error {
	k := len(c.errs)
	c.hi, c.until, c.cut = hi, until, cut
	c.joined.Add(k)
	c.next.Store(1) // partition 0 is Run's goroutine's
	c.fork()
	c.errs[0] = c.e.drainSafe(0, hi, until, cut)
	c.joined.Done()
	c.claim()
	c.joined.Wait()
	for _, err := range c.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// dismiss stops the workers and returns once every one has exited, so that
// a Run leaves no goroutine behind, whether it reached its horizon or
// failed.
func (c *crew) dismiss() {
	c.quit.Store(true)
	c.fork()
	c.exited.Wait()
}

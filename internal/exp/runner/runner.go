// Package runner is the worker-pool sweep engine behind the experiment
// harness. Experiments consist of dozens of independent simulation runs
// (one per parameter point); Map fans them out across a bounded set of
// goroutines and hands the results back in input order, so rendered tables
// are byte-identical no matter how many workers ran the sweep or in which
// order trials completed.
//
// Determinism contract:
//
//   - results are always delivered in input order;
//   - job functions receive only their input index, so any per-trial
//     randomness must be derived from that index (see DeriveSeed), never
//     from scheduling order;
//   - a sweep aborts early on failure and reports the error of the
//     lowest-indexed failed job, which keeps the reported error stable
//     across worker counts whenever job i's failure does not depend on
//     scheduling (the common case: deterministic workloads).
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the pool size used when Map is called with
// workers <= 0. Zero means "use GOMAXPROCS". It is atomic because
// benchmarks and the -workers flag set it while experiment subtests may
// run in parallel.
var defaultWorkers atomic.Int32

// DefaultWorkers returns the pool size used for workers <= 0:
// the last SetDefaultWorkers value, or GOMAXPROCS when unset.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultWorkers sets the pool size used by Map when the caller passes
// workers <= 0. n <= 0 restores the GOMAXPROCS default. cmd binaries and
// benchmarks wire their -workers flag here.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// Map runs fn(0) … fn(n-1) on a pool of `workers` goroutines (DefaultWorkers
// when workers <= 0) and returns the results in input order.
//
// On the first failure the pool stops claiming new jobs; jobs already in
// flight finish, and Map returns the error of the lowest-indexed job that
// failed. A panic inside fn is recovered and reported as that job's error,
// so one exploding trial cannot take down an entire sweep silently.
func Map[R any](workers, n int, fn func(i int) (R, error)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	results := make([]R, n)

	if workers == 1 {
		// Serial reference path: strict input order, immediate abort.
		for i := 0; i < n; i++ {
			r, err := call(fn, i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	var (
		next    atomic.Int64
		aborted atomic.Bool
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || aborted.Load() {
					return
				}
				r, err := call(fn, i)
				if err != nil {
					errs[i] = err
					aborted.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// PanicError is the error of a job that panicked: which job, the recovered
// value and the stack at the panic. Callers whose jobs have better names than
// an index (the sharded engine's shards) re-label it through errors.As.
type PanicError struct {
	Job   int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v\n%s", e.Job, e.Value, e.Stack)
}

// call invokes fn(i), converting a panic into a *PanicError.
func call[R any](fn func(int) (R, error), i int) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Job: i, Value: p, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// DeriveSeed deterministically mixes a base seed with a trial index
// (splitmix64 finalizer; the same published constants as sim's internal
// mix64 — duplicated so this generic pool does not import the simulator).
// Trials seeded this way get well-separated RNG streams that depend only on
// (base, trial) — never on worker count or completion order — so
// multi-trial sweeps stay reproducible in parallel. The result is never 0,
// which the workload layer reserves for "default".
func DeriveSeed(base int64, trial int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(trial+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z)
	if s == 0 {
		return 1
	}
	return s
}

package sim

import "repro/internal/clock"

// Runner is what a run needs of an engine, sequential or sharded: register
// observers, run to a horizon, read the counters and the processes back.
// Both engines run one execution of a configuration (they number sends and
// draw delays alike), so code that builds a system and measures it holds a
// Runner, and the choice of engine is made in one place (NewRunner) and
// nowhere after it.
type Runner interface {
	Observe(Observer) error
	Run(until clock.Real) error
	N() int
	Now() clock.Real
	Steps() int
	MessagesSent() int64
	MessagesLost() int64
	TimersLapsed() int64
	QueuePeak() int
	LocalTimeSpread(t clock.Real) (lo, hi clock.Local, count int)
	LocalTime(p ProcID, t clock.Real) (clock.Local, bool)
	Process(p ProcID) Process
	NonfaultyIDs() []ProcID
	Faulty(p ProcID) bool
}

var (
	_ Runner = (*Engine)(nil)
	_ Runner = (*ShardedEngine)(nil)
)

// NewRunner builds the engine for cfg: the sequential one for shards = 0,
// the sharded time-window engine over k partitions for shards = k ≥ 1 (k = 1
// is still the windowed execution, sampled at window cuts).
func NewRunner(cfg Config, shards int) (Runner, error) {
	if shards == 0 {
		e, err := New(cfg)
		if err != nil {
			return nil, err
		}
		return e, nil
	}
	se, err := NewSharded(cfg, shards)
	if err != nil {
		return nil, err
	}
	return se, nil
}

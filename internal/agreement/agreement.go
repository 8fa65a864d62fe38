// Package agreement implements synchronous approximate agreement in the
// style of Dolev, Lynch, Pinter, Stark and Weihl [DLPSW] — the work the
// paper's fault-tolerant averaging function is based on (§1, Appendix).
//
// n processes, at most f of them Byzantine (n ≥ 3f+1), each start with a
// real value. Each round every process broadcasts its value; Byzantine
// processes may send different values to different recipients. Each
// nonfaulty process applies mid(reduce_f(·)) (or mean(reduce_f(·))) to the n
// values it received. With the midpoint the diameter of nonfaulty values at
// least halves every round; with the mean it contracts by ≈ f/(n−2f).
// Validity holds throughout: nonfaulty values stay within the range of the
// initial nonfaulty values.
//
// Clock synchronization is an application of this machinery (the paper's
// closing claim): each round of the clock algorithm is one approximate
// agreement round on the real times at which clocks reach Tⁱ.
package agreement

import (
	"errors"
	"fmt"

	"repro/internal/multiset"
)

// Averager selects the ordinary averaging function applied after reduce_f;
// the zero value means Midpoint.
type Averager = multiset.Averager

// Averaging choices.
const (
	Midpoint = multiset.Midpoint
	Mean     = multiset.Mean
)

// Adversary supplies the values Byzantine processes send. Value returns what
// faulty process `from` sends to nonfaulty `to` in the given round — the
// two-faced freedom is the whole game.
type Adversary interface {
	Value(round, from, to int) float64
}

// AdversaryFunc adapts a function to the Adversary interface.
type AdversaryFunc func(round, from, to int) float64

// Value implements Adversary.
func (f AdversaryFunc) Value(round, from, to int) float64 { return f(round, from, to) }

// SpreadAdversary is the canonical worst case: it sends the current minimum
// of the nonfaulty values to the lower half of recipients and the maximum to
// the upper half, trying to keep the group apart. It must be refreshed with
// the current range each round via Observe.
type SpreadAdversary struct {
	lo, hi float64
}

// Observe records the current nonfaulty range.
func (s *SpreadAdversary) Observe(lo, hi float64) { s.lo, s.hi = lo, hi }

// Value implements Adversary.
func (s *SpreadAdversary) Value(_, _, to int) float64 {
	if to%2 == 0 {
		return s.lo
	}
	return s.hi
}

// Config parameterizes a run.
type Config struct {
	N, F     int
	Averager Averager
	// Adversary may be nil when Faulty is all-false.
	Adversary Adversary
}

// Validate checks the protocol preconditions.
func (c Config) Validate() error {
	if c.N < 3*c.F+1 {
		return fmt.Errorf("agreement: need n ≥ 3f+1, got n=%d f=%d", c.N, c.F)
	}
	if c.F < 0 {
		return fmt.Errorf("agreement: negative f %d", c.F)
	}
	if c.Averager > Mean {
		return fmt.Errorf("agreement: unknown averager %v", c.Averager)
	}
	return nil
}

// State is one execution of the protocol.
type State struct {
	cfg    Config
	vals   []float64 // current values; faulty slots are ignored
	faulty []bool
	round  int
}

// New builds an execution from initial values. faulty marks the Byzantine
// processes (at most f true entries).
func New(cfg Config, initial []float64, faulty []bool) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Averager == 0 {
		cfg.Averager = Midpoint
	}
	if len(initial) != cfg.N || len(faulty) != cfg.N {
		return nil, fmt.Errorf("agreement: need %d initial values and faulty flags, got %d and %d",
			cfg.N, len(initial), len(faulty))
	}
	nf := 0
	for _, b := range faulty {
		if b {
			nf++
		}
	}
	if nf > cfg.F {
		return nil, fmt.Errorf("agreement: %d faulty processes exceed f=%d", nf, cfg.F)
	}
	if nf > 0 && cfg.Adversary == nil {
		return nil, errors.New("agreement: faulty processes but no adversary")
	}
	vals := make([]float64, cfg.N)
	copy(vals, initial)
	return &State{cfg: cfg, vals: vals, faulty: faulty}, nil
}

// Values returns the current nonfaulty values (indexed compactly).
func (s *State) Values() []float64 {
	out := make([]float64, 0, s.cfg.N)
	for i, v := range s.vals {
		if !s.faulty[i] {
			out = append(out, v)
		}
	}
	return out
}

// Diameter returns max−min of the nonfaulty values.
func (s *State) Diameter() float64 {
	m := multiset.New(s.Values()...)
	return m.Diam()
}

// Step executes one synchronous round.
func (s *State) Step() error {
	next := make([]float64, s.cfg.N)
	for p := 0; p < s.cfg.N; p++ {
		if s.faulty[p] {
			continue
		}
		received := make([]float64, 0, s.cfg.N)
		for q := 0; q < s.cfg.N; q++ {
			if s.faulty[q] {
				received = append(received, s.cfg.Adversary.Value(s.round, q, p))
			} else {
				received = append(received, s.vals[q])
			}
		}
		av, err := s.cfg.Averager.Average(received, s.cfg.F)
		if err != nil {
			return fmt.Errorf("agreement: round %d process %d: %w", s.round, p, err)
		}
		next[p] = av
	}
	for p := 0; p < s.cfg.N; p++ {
		if !s.faulty[p] {
			s.vals[p] = next[p]
		}
	}
	s.round++
	return nil
}

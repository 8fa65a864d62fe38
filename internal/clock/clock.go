// Package clock implements the paper's clock model (§2.1, §3.1): a clock is a
// monotonically increasing, (piecewise-)differentiable function from real
// times to clock times, and a physical clock is ρ-bounded when its rate stays
// within [1/(1+ρ), 1+ρ].
//
// Following the paper's notational convention, lower-case letters are real
// times and upper-case letters are clock times; here the two are the defined
// types Real and Local. All times are in seconds.
//
// A clock is a piecewise-linear function (Clock is *PiecewiseLinear), which
// keeps it exactly invertible — the simulation engine relies on Inv to
// schedule TIMER delivery at the exact real instant Ph⁻¹(T) the model
// prescribes — and lets the engine hold the linear piece a clock is on
// (Segment) and read it bit for bit as At does. A logical clock Ph + CORR is
// not a Clock: the engine adds a process's correction to its physical clock.
package clock

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Real is a point on the real-time axis ("t" in the paper), in seconds.
type Real float64

// Local is a point on a clock-time axis ("T" in the paper), in seconds. Both
// physical clock readings and logical (corrected) times are Local values.
type Local float64

// Duration helpers keep call sites readable without importing time.
const (
	Millisecond = 1e-3
	Microsecond = 1e-6
)

// Clock is a physical clock: a strictly increasing piecewise-linear mapping
// from real time to clock time, so that Inv is well defined and exact.
type Clock = *PiecewiseLinear

// segment is one linear piece of a piecewise-linear clock: for t >= start
// (until the next segment) the clock reads value + rate*(t-start).
type segment struct {
	start Real
	value Local
	rate  float64
}

// PiecewiseLinear is a strictly increasing piecewise-linear clock. The zero
// value is not usable; construct with New, Linear, or a drift schedule.
type PiecewiseLinear struct {
	segs []segment
}

// Linear returns the clock C(t) = offset + rate*t.
func Linear(offset Local, rate float64) *PiecewiseLinear {
	return &PiecewiseLinear{segs: []segment{{start: 0, value: offset, rate: rate}}}
}

// Breakpoint describes the clock rate taking effect at a real time. Used to
// build piecewise clocks via New.
type Breakpoint struct {
	Start Real    // real time the rate takes effect
	Rate  float64 // dC/dt from Start until the next breakpoint
}

// New builds a piecewise-linear clock that reads valueAtFirst at the first
// breakpoint's start time and then follows the given rates. Breakpoints must
// be strictly increasing in Start and all rates must be positive. The clock
// is extended to all of ℝ using the first and last rates.
func New(valueAtFirst Local, bps []Breakpoint) (*PiecewiseLinear, error) {
	if len(bps) == 0 {
		return nil, errors.New("clock: need at least one breakpoint")
	}
	segs := make([]segment, len(bps))
	for i, bp := range bps {
		if bp.Rate <= 0 {
			return nil, fmt.Errorf("clock: rate %v at breakpoint %d is not positive", bp.Rate, i)
		}
		if i > 0 && bp.Start <= bps[i-1].Start {
			return nil, fmt.Errorf("clock: breakpoint %d start %v not after previous %v", i, bp.Start, bps[i-1].Start)
		}
		segs[i] = segment{start: bp.Start, rate: bp.Rate}
	}
	settle(segs, valueAtFirst)
	return &PiecewiseLinear{segs: segs}, nil
}

// settle sets the reading of each piece from its start and rate: v at the
// first piece, and at each later one where the piece before it has got to.
func settle(segs []segment, v Local) {
	for i := range segs {
		if i > 0 {
			prev := segs[i-1]
			v = prev.value + Local(prev.rate*float64(segs[i].start-prev.start))
		}
		segs[i].value = v
	}
}

// At returns the clock reading at real time t (the paper's C(t)).
func (c *PiecewiseLinear) At(t Real) Local {
	s := c.segs[c.segIndex(t)]
	return s.value + Local(s.rate*float64(t-s.start))
}

// Inv returns the real time at which the clock reads T (the paper's c(T),
// the inverse function).
func (c *PiecewiseLinear) Inv(T Local) Real {
	s := c.segs[0]
	if len(c.segs) > 1 {
		// Find the last segment whose starting value is <= T. Values are
		// increasing across segments because rates are positive.
		i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].value > T }) - 1
		if i < 0 {
			i = 0
		}
		s = c.segs[i]
	}
	return s.start + Real(float64(T-s.value)/s.rate)
}

func (c *PiecewiseLinear) segIndex(t Real) int {
	if len(c.segs) == 1 {
		// Linear clocks (the default constant-drift schedule) are the
		// per-event hot path; skip the binary search and its closure.
		return 0
	}
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].start > t }) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// Segment is the linear piece of a PiecewiseLinear clock in force over the
// real-time interval [From, Until): for every t in it, At(t) is exactly
//
//	Value + Local(Rate*float64(t-Start))
//
// — the expression At itself evaluates, so a caller that holds the segment
// (the simulation engine's clock table) reproduces At bit for bit without
// the method call. The first piece extends back to From = −∞ and the last
// forward to Until = +∞, matching how At extends the clock to all of ℝ.
type Segment struct {
	Start       Real
	Value       Local
	Rate        float64
	From, Until Real
}

// SegmentAt returns the piece At(t) reads.
func (c *PiecewiseLinear) SegmentAt(t Real) Segment {
	i := c.segIndex(t)
	s := c.segs[i]
	seg := Segment{Start: s.start, Value: s.value, Rate: s.rate, From: Real(math.Inf(-1)), Until: Real(math.Inf(1))}
	if i > 0 {
		seg.From = s.start
	}
	if i+1 < len(c.segs) {
		seg.Until = c.segs[i+1].start
	}
	return seg
}

// RhoBounded reports whether every segment rate of the clock lies within the
// paper's ρ-band [1/(1+ρ), 1+ρ].
func (c *PiecewiseLinear) RhoBounded(rho float64) bool {
	lo, hi := 1/(1+rho), 1+rho
	for _, s := range c.segs {
		if s.rate < lo-1e-15 || s.rate > hi+1e-15 {
			return false
		}
	}
	return true
}

// Segments returns the number of linear pieces (useful in tests).
func (c *PiecewiseLinear) Segments() int { return len(c.segs) }

// MaxRho returns the smallest ρ such that a rate r is within [1/(1+ρ), 1+ρ];
// useful when characterizing a generated clock.
func MaxRho(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	if rate >= 1 {
		return rate - 1
	}
	return 1/rate - 1
}

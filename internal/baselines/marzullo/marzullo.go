// Package marzullo implements Marzullo's interval-intersection time service
// [M] (§10 of the paper): each process maintains an interval guaranteed to
// contain the correct reference, periodically collects its neighbors'
// intervals, and intersects them tolerating f bad intervals.
//
// The heart is the classic intersection algorithm (Intersect): given n
// intervals of which at least n−f contain the true value, the smallest
// interval containing every point that lies in at least n−f of them also
// contains the true value.
//
// As a clock discipline: every round each process broadcasts its local time
// and error bound E. The receiver turns each message into an interval on the
// *offset* between the sender's clock and its own (center: the usual
// estimate mark+δ−local, half-width: E_sender+ε), adds its own [−E, +E],
// intersects with quorum n−f, and slews by the midpoint. Error bounds grow
// with drift (2ρ per second of round) and shrink at each intersection.
//
// §10 notes Marzullo's analysis is probabilistic and hard to compare
// head-to-head; experiment E08 simply measures the achieved agreement on the
// common substrate.
//
// Peer-only caveat: Marzullo's service assumes some nodes have externally
// disciplined clocks (radio receivers) whose error bound does not grow.
// With peers only — the setting shared by every algorithm in this repository
// — the error bound E honestly grows by about ε + 2ρP per round (every
// peer's interval is equally wide, so intersection cannot tighten them),
// while the *mutual* skew of the clocks stays small. E08 therefore compares
// skew, and the tests assert the documented E growth rate.
package marzullo

import (
	"errors"
	"sort"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sim"
)

// Interval is a closed real interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Valid reports Lo ≤ Hi.
func (iv Interval) Valid() bool { return iv.Lo <= iv.Hi }

// Mid returns the midpoint.
func (iv Interval) Mid() float64 { return (iv.Lo + iv.Hi) / 2 }

// HalfWidth returns (Hi−Lo)/2.
func (iv Interval) HalfWidth() float64 { return (iv.Hi - iv.Lo) / 2 }

// ErrTooFewIntervals is returned when no point is covered by the quorum.
var ErrTooFewIntervals = errors.New("marzullo: no point lies in enough intervals")

// Intersect returns the smallest interval containing every point that lies
// in at least k of the given intervals (Marzullo's algorithm). It returns
// ErrTooFewIntervals when the maximum overlap is below k.
func Intersect(ivs []Interval, k int) (Interval, error) {
	if k <= 0 || len(ivs) == 0 || k > len(ivs) {
		return Interval{}, ErrTooFewIntervals
	}
	type edge struct {
		x     float64
		delta int // +1 at Lo, −1 just after Hi
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		if !iv.Valid() {
			continue
		}
		edges = append(edges, edge{iv.Lo, +1}, edge{iv.Hi, -1})
	}
	// At equal coordinates process starts before ends so closed intervals
	// touching at a point count as overlapping there.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].x != edges[j].x {
			return edges[i].x < edges[j].x
		}
		return edges[i].delta > edges[j].delta
	})
	count := 0
	lo, hi := 0.0, 0.0
	found := false
	for _, e := range edges {
		count += e.delta
		if e.delta > 0 && count == k && !found {
			lo = e.x
			found = true
		}
		if e.delta < 0 && count == k-1 && found {
			hi = e.x // last time coverage drops below k
		}
	}
	if !found {
		return Interval{}, ErrTooFewIntervals
	}
	return Interval{Lo: lo, Hi: hi}, nil
}

// Config parameterizes the interval clock discipline.
type Config struct {
	analysis.Params
	// InitialError is E₀, the starting half-width of each process's own
	// interval. Zero defaults to β.
	InitialError float64
}

func (c Config) withDefaults() Config {
	if c.InitialError == 0 {
		c.InitialError = c.Beta
	}
	return c
}

// TimeMsg carries the sender's round mark and current error bound.
type TimeMsg struct {
	Mark clock.Local
	Err  float64
}

// Proc is one interval-discipline process: the intersection as a
// core.Discipline on the §4.2 schedule of the RoundProc it embeds.
type Proc struct {
	*core.RoundProc
	cfg  Config
	errB float64 // E: current half-width of own interval

	centers []float64
	widths  []float64
	have    []bool
}

// New builds a Marzullo process.
func New(cfg Config, initialCorr clock.Local) *Proc {
	cfg = cfg.withDefaults()
	p := &Proc{
		cfg:     cfg,
		errB:    cfg.InitialError,
		centers: make([]float64, cfg.N),
		widths:  make([]float64, cfg.N),
		have:    make([]bool, cfg.N),
	}
	p.RoundProc = core.NewRoundProc(cfg.Params, cfg.Window(), p, initialCorr)
	return p
}

// ErrorBound returns the current half-width E of the process's own interval.
func (p *Proc) ErrorBound() float64 { return p.errB }

// Payload implements core.Discipline.
func (p *Proc) Payload(mark clock.Local) any { return TimeMsg{Mark: mark, Err: p.errB} }

// Hear implements core.Discipline.
func (p *Proc) Hear(m sim.Message, local clock.Local) {
	if tm, ok := m.Payload.(TimeMsg); ok {
		p.centers[m.From] = float64(tm.Mark) + p.cfg.Delta - float64(local)
		p.widths[m.From] = tm.Err + p.cfg.Eps
		p.have[m.From] = true
	}
}

// Adjust implements core.Discipline: intersect with quorum n−f, slew by the
// midpoint.
func (p *Proc) Adjust(clock.Local) float64 {
	ivs := make([]Interval, 0, p.cfg.N)
	for q := 0; q < p.cfg.N; q++ {
		if !p.have[q] {
			continue
		}
		ivs = append(ivs, Interval{Lo: p.centers[q] - p.widths[q], Hi: p.centers[q] + p.widths[q]})
		p.have[q] = false
	}
	adj := 0.0
	res, err := Intersect(ivs, len(ivs)-p.cfg.F)
	if err == nil {
		adj = res.Mid()
		p.errB = res.HalfWidth()
	}
	// Drift widens the interval until the next exchange.
	p.errB += float64(2 * p.cfg.Rho * p.cfg.P)
	return adj
}

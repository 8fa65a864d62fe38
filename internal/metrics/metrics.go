// Package metrics turns engine observations into the quantities the paper
// reasons about: the maximum skew between nonfaulty local times (γ of
// Theorem 16), the per-round real-time spread of round beginnings (β of
// Theorem 4(c)), adjustment magnitudes (Theorem 4(a)), and the validity
// envelope of Theorem 19.
package metrics

import (
	"math"
	"slices"

	"repro/internal/clock"
	"repro/internal/sim"
)

// TimedValue is an annotation value with its real timestamp.
type TimedValue struct {
	At    clock.Real
	Proc  sim.ProcID
	Value float64
}

// SkewRecorder tracks max |L_p(t) − L_q(t)| over nonfaulty p, q. The engine
// samples wherever a local time may bend (sim.Sampler), and the skew is
// convex between two such instants, so the recorder sees its exact maxima —
// over the run, from Warmup on and per bucket, whose first instants it asks
// the engine to sample (sim.Engine.SampleAt).
type SkewRecorder struct {
	// Warmup discards samples before this real time from MaxAfterWarmup
	// (steady-state skew, after initial convergence).
	Warmup clock.Real
	// Bucket groups the skew series into real-time buckets of this width;
	// zero disables series collection.
	Bucket clock.Real

	max      float64
	maxAfter float64
	series   []float64 // per-bucket max skew
}

var _ sim.Sampler = (*SkewRecorder)(nil)

// Sample implements sim.Sampler.
func (r *SkewRecorder) Sample(e *sim.Engine, _ bool) {
	t := e.Now()
	if t < r.Warmup {
		e.SampleAt(r.Warmup)
	}
	if r.Bucket > 0 {
		e.SampleAt(clock.Real(r.bucket(t)+1) * r.Bucket)
	}
	lo, hi, count := e.LocalTimeSpread(t)
	r.Record(t, lo, hi, count)
}

// bucket returns the series bucket of real time t: b with b·Bucket ≤ t <
// (b+1)·Bucket, in the products Sample asks the engine to sample at.
func (r *SkewRecorder) bucket(t clock.Real) int {
	b := int(t / r.Bucket)
	if t >= clock.Real(b+1)*r.Bucket {
		b++
	}
	return b
}

// Record folds the nonfaulty local-time extremes lo, hi of count processes at
// real time t into the maxima.
func (r *SkewRecorder) Record(t clock.Real, lo, hi clock.Local, count int) {
	if count < 2 {
		return
	}
	skew := float64(hi - lo)
	if skew > r.max {
		r.max = skew
	}
	if t >= r.Warmup && skew > r.maxAfter {
		r.maxAfter = skew
	}
	if r.Bucket <= 0 {
		return
	}
	b := r.bucket(t)
	for len(r.series) <= b {
		r.series = append(r.series, 0)
	}
	r.raise(b, skew)
	if b > 0 && t == clock.Real(b)*r.Bucket {
		r.raise(b-1, skew) // a bucket's first instant is the last of the one before
	}
}

func (r *SkewRecorder) raise(b int, skew float64) {
	if skew > r.series[b] {
		r.series[b] = skew
	}
}

// Max returns the largest skew observed over the whole run.
func (r *SkewRecorder) Max() float64 { return r.max }

// MaxAfterWarmup returns the largest skew observed at or after Warmup.
func (r *SkewRecorder) MaxAfterWarmup() float64 { return r.maxAfter }

// Series returns the per-bucket max skew (empty if Bucket was zero).
func (r *SkewRecorder) Series() []float64 { return r.series }

// NonfaultySkew computes max−min of the nonfaulty local times at real time t.
// ok is false when fewer than two nonfaulty processes expose local times.
// The scan is delegated to the engine's LocalTimeSpread: at the current
// instant every observer shares the one evaluation the engine makes per
// configuration, and a read that finds the configuration unchanged costs
// nothing at all.
func NonfaultySkew(e *sim.Engine, t clock.Real) (float64, bool) {
	lo, hi, count := e.LocalTimeSpread(t)
	if count < 2 {
		return 0, false
	}
	return float64(hi - lo), true
}

// RoundRecorder collects the per-round annotations emitted by the core (and
// baseline) processes.
type RoundRecorder struct {
	// BeginTag and AdjTag name the annotations to collect; the core
	// package's TagRoundBegin/TagAdjust by default (set by NewRoundRecorder).
	BeginTag string
	AdjTag   string

	// begins holds round i's round-begin events at
	// begins[i/beginChunk][i%beginChunk], nil for a round not seen. The
	// round index is dense — rounds run 0, 1, 2, … — so it indexes chunks
	// made as the rounds come, and no record ever moves. Each round's list
	// is carved, n times long, off slab, the rest of an array made for up
	// to beginChunk rounds at once.
	begins [][]roundBegins
	slab   []clock.Real
	// adjs is every adjustment in arrival order, a chunk at a time: a full
	// chunk is followed by one twice as long, so the log is never copied
	// and at most half of it is room to spare.
	adjs [][]TimedValue
}

// roundBegins is one round's record: the real times of its round-begin
// events, and the instantaneous nonfaulty skew at the *latest* of them seen
// so far — the paper's Bⁱ is defined "at the latest real time when a
// nonfaulty process begins round i" (§9.2). Annotations arrive in time
// order, so overwriting keeps the latest.
type roundBegins struct {
	ats  []clock.Real
	skew float64
}

// beginChunk is how many rounds' records a chunk of begins holds, and the
// most rounds' begin lists one slab holds (as many as the rounds seen so
// far, and at least 4).
const beginChunk = 64

// round returns round i's record, nil when i is past every chunk.
func (r *RoundRecorder) round(i int) *roundBegins {
	if i < 0 || i/beginChunk >= len(r.begins) {
		return nil
	}
	return &r.begins[i/beginChunk][i%beginChunk]
}

var _ sim.AnnotationSink = (*RoundRecorder)(nil)

// NewRoundRecorder builds a recorder for the given annotation tags.
func NewRoundRecorder(beginTag, adjTag string) *RoundRecorder {
	return &RoundRecorder{BeginTag: beginTag, AdjTag: adjTag}
}

// OnAnnotation implements sim.AnnotationSink. (The recorder deliberately has
// no Sample method: annotations arrive on their own callback, so the engine
// skips it when it samples.)
//
// The collection buffers are sized from the system size n: a round's begin
// list is n slots of a slab made for up to 64 rounds, and the adjustment
// log's first chunk is several rounds deep; neither is ever copied.
func (r *RoundRecorder) OnAnnotation(e *sim.Engine, a sim.Annotation) {
	if e.Faulty(a.Proc) {
		return
	}
	switch a.Tag {
	case r.BeginTag:
		i := int(a.Value)
		if i < 0 {
			return // not a round index
		}
		for i/beginChunk >= len(r.begins) {
			r.begins = append(r.begins, make([]roundBegins, beginChunk))
		}
		rb := r.round(i)
		if rb.ats == nil {
			n := e.N()
			if len(r.slab) < n {
				r.slab = make([]clock.Real, n*min(beginChunk, max(4, i)))
			}
			rb.ats, r.slab = r.slab[:0:n], r.slab[n:]
		}
		rb.ats = append(rb.ats, a.At)
		if skew, ok := NonfaultySkew(e, a.At); ok {
			rb.skew = skew
		}
	case r.AdjTag:
		if k := len(r.adjs); k == 0 || len(r.adjs[k-1]) == cap(r.adjs[k-1]) {
			size := 8 * e.N()
			if k > 0 {
				size = 2 * cap(r.adjs[k-1])
			}
			r.adjs = append(r.adjs, make([]TimedValue, 0, size))
		}
		last := &r.adjs[len(r.adjs)-1]
		*last = append(*last, TimedValue{At: a.At, Proc: a.Proc, Value: a.Value})
	}
}

// Rounds returns the number of rounds for which every nonfaulty process has
// a recorded beginning (consecutive from 0).
func (r *RoundRecorder) Rounds() int {
	for i := 0; ; i++ {
		if rb := r.round(i); rb == nil || rb.ats == nil {
			return i
		}
	}
}

// BetaMeasured returns the real-time spread of round i's beginnings — the
// measured βᵢ of Theorem 4(c) — and false if round i was not observed.
func (r *RoundRecorder) BetaMeasured(i int) (float64, bool) {
	rb := r.round(i)
	if rb == nil || len(rb.ats) == 0 {
		return 0, false
	}
	lo, hi := rb.ats[0], rb.ats[0]
	for _, at := range rb.ats[1:] {
		lo, hi = min(lo, at), max(hi, at)
	}
	return float64(hi - lo), true
}

// BetaSeries returns the measured βᵢ for all complete rounds.
func (r *RoundRecorder) BetaSeries() []float64 {
	n := r.Rounds()
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		b, _ := r.BetaMeasured(i)
		out = append(out, b)
	}
	return out
}

// SkewAtBegin returns the instantaneous nonfaulty skew at the latest
// round-begin annotation of round i (the paper's Bⁱ for the start-up
// algorithm).
func (r *RoundRecorder) SkewAtBegin(i int) float64 {
	if rb := r.round(i); rb != nil {
		return rb.skew
	}
	return 0
}

// MaxAbsAdj returns the largest |ADJ| over nonfaulty processes, optionally
// restricted to adjustments at or after real time from.
func (r *RoundRecorder) MaxAbsAdj(from clock.Real) float64 {
	m := 0.0
	for _, c := range r.adjs {
		for _, a := range c {
			if a.At < from {
				continue
			}
			if v := math.Abs(a.Value); v > m {
				m = v
			}
		}
	}
	return m
}

// Adjustments returns all recorded adjustments in arrival order, in a new
// slice.
func (r *RoundRecorder) Adjustments() []TimedValue { return slices.Concat(r.adjs...) }

// AnnotationTimes returns, per round, the sorted real times of the begin
// annotations (useful for validity's tmin/tmax bookkeeping).
func (r *RoundRecorder) AnnotationTimes(i int) []clock.Real {
	var ts []clock.Real
	if rb := r.round(i); rb != nil {
		ts = slices.Clone(rb.ats)
	}
	slices.Sort(ts)
	return ts
}

// ValidityRecorder checks the Theorem 19 envelope
//
//	α₁(t − tmax⁰) − α₃ ≤ L_p(t) − T⁰ ≤ α₂(t − tmin⁰) + α₃
//
// at every sample and tracks the worst violation (a worst violation of 0
// means the envelope held throughout).
type ValidityRecorder struct {
	Alpha1, Alpha2, Alpha3 float64
	T0                     float64
	TMin0, TMax0           clock.Real
	// From discards samples before this real time (validity is stated for
	// t ≥ t_p⁰).
	From clock.Real

	worst   float64 // max over samples of (violation amount); 0 when clean
	samples int
}

var _ sim.Sampler = (*ValidityRecorder)(nil)

// Sample implements sim.Sampler. A sample before From asks for one at From.
func (v *ValidityRecorder) Sample(e *sim.Engine, _ bool) {
	t := e.Now()
	if t < v.From {
		e.SampleAt(v.From)
		return
	}
	lo, hi, count := e.LocalTimeSpread(t)
	v.Record(t, lo, hi, count)
}

// Record checks the nonfaulty local-time extremes lo, hi of count processes
// at real time t. The envelope is monotone in L_p, so the per-process check
// reduces to the extremes: the lower bound is tightest for the minimum local
// time and the upper bound for the maximum.
func (v *ValidityRecorder) Record(t clock.Real, lo, hi clock.Local, count int) {
	if t < v.From || count == 0 {
		return
	}
	v.samples += count
	lower := float64(v.Alpha1*float64(t-v.TMax0)) - v.Alpha3
	upper := float64(v.Alpha2*float64(t-v.TMin0)) + v.Alpha3
	if d := lower - (float64(lo) - v.T0); d > v.worst {
		v.worst = d
	}
	if d := (float64(hi) - v.T0) - upper; d > v.worst {
		v.worst = d
	}
}

// WorstViolation returns the largest envelope violation observed; 0 means
// Theorem 19 held at every sample.
func (v *ValidityRecorder) WorstViolation() float64 { return v.worst }

// Samples returns how many (process, time) points were checked.
func (v *ValidityRecorder) Samples() int { return v.samples }

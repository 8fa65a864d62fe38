// Package metrics turns engine observations into the quantities the paper
// reasons about: the maximum skew between nonfaulty local times (γ of
// Theorem 16), the per-round real-time spread of round beginnings (β of
// Theorem 4(c)), adjustment magnitudes (Theorem 4(a)), and the validity
// envelope of Theorem 19.
package metrics

import (
	"math"
	"sort"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/sim"
)

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
func (r *SkewRecorder) Sample(e *sim.Engine, _ bool) { r.Measure(e) }

// Measure samples e as Sample does and returns what it recorded: the
// instant, the nonfaulty local-time spread there and how many processes it
// spans (the spread is meaningless when that count is 0). A checker of the
// spread samples through it instead of measuring again.
func (r *SkewRecorder) Measure(e *sim.Engine) (t clock.Real, skew float64, count int) {
	t = e.Now()
	if t < r.Warmup {
		e.SampleAt(r.Warmup)
	}
	if r.Bucket > 0 {
		e.SampleAt(clock.Real(r.bucket(t)+1) * r.Bucket)
	}
	lo, hi, count := e.LocalTimeSpread(t)
	r.Record(t, lo, hi, count)
	return t, float64(hi - lo), count
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
// baseline) processes. It keeps what its readers read: per round the
// earliest and latest begin and the skew at the latest, and of the
// adjustments only their suffix maxima.
type RoundRecorder struct {
	// BeginTag and AdjTag name the annotations to collect; the core
	// package's TagRoundBegin/TagAdjust by default (set by NewRoundRecorder).
	BeginTag string
	AdjTag   string

	// rounds[i] is round i's record. The round index is dense — rounds run
	// 0, 1, 2, … — so it indexes the slice, which doubles when full (from
	// 64 records).
	rounds []round
	// peaks are the suffix maxima of |ADJ|, ascending in time and strictly
	// descending in value: each adjustment that no later one equals or
	// exceeds. The largest |ADJ| at or after an instant is the first peak
	// at or after it.
	peaks []peak
	adjs  int
}

// round is one round's record: the earliest and latest real time of its
// round-begin events, and the instantaneous nonfaulty skew at the latest of
// them seen so far — the paper's Bⁱ is defined "at the latest real time
// when a nonfaulty process begins round i" (§9.2). Annotations arrive in
// time order, so the first begin is the earliest and overwriting keeps the
// latest.
type round struct {
	first, last clock.Real
	skew        float64
	seen        bool
}

// peak is one adjustment of the suffix maxima: its real time and |ADJ|.
type peak struct {
	at clock.Real
	v  float64
}

var _ sim.AnnotationSink = (*RoundRecorder)(nil)

// NewRoundRecorder builds a recorder for the given annotation tags. The
// suffix maxima of a run's adjustments are few — 5 to 11 at the end of
// flat runs of n = 4 to 1009, from 408 to 35,014 adjustments — so their
// stack starts with room for 32.
func NewRoundRecorder(beginTag, adjTag string) *RoundRecorder {
	return &RoundRecorder{BeginTag: beginTag, AdjTag: adjTag, peaks: make([]peak, 0, 32)}
}

// OnAnnotation implements sim.AnnotationSink. (The recorder deliberately has
// no Sample method: annotations arrive on their own callback, so the engine
// skips it when it samples.)
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
		for len(r.rounds) <= i {
			if len(r.rounds) == cap(r.rounds) {
				r.rounds = append(make([]round, 0, max(64, 2*cap(r.rounds))), r.rounds...)
			}
			r.rounds = append(r.rounds, round{})
		}
		rb := &r.rounds[i]
		if !rb.seen {
			rb.first, rb.seen = a.At, true
		}
		rb.last = a.At
		if skew, ok := NonfaultySkew(e, a.At); ok {
			rb.skew = skew
		}
	case r.AdjTag:
		r.adjs++
		v := math.Abs(a.Value)
		if math.IsNaN(v) {
			return // never a maximum
		}
		// Annotations arrive in time order, so every peak is at or before
		// a.At: those no larger than v are no longer suffix maxima.
		k := len(r.peaks)
		for k > 0 && r.peaks[k-1].v <= v {
			k--
		}
		r.peaks = append(r.peaks[:k], peak{a.At, v})
	}
}

// round returns round i's record, the zero record for a round not seen.
func (r *RoundRecorder) round(i int) round {
	if i < 0 || i >= len(r.rounds) {
		return round{}
	}
	return r.rounds[i]
}

// Rounds returns the number of rounds, consecutive from 0, that some
// nonfaulty process has a recorded beginning of.
func (r *RoundRecorder) Rounds() int {
	for i, rb := range r.rounds {
		if !rb.seen {
			return i
		}
	}
	return len(r.rounds)
}

// BetaMeasured returns the real-time spread of round i's beginnings — the
// measured βᵢ of Theorem 4(c) — and false if round i was not observed.
func (r *RoundRecorder) BetaMeasured(i int) (float64, bool) {
	rb := r.round(i)
	return float64(rb.last - rb.first), rb.seen
}

// BetaSeries returns the measured βᵢ for all complete rounds.
func (r *RoundRecorder) BetaSeries() []float64 {
	out := make([]float64, r.Rounds())
	for i := range out {
		out[i], _ = r.BetaMeasured(i)
	}
	return out
}

// SkewAtBegin returns the instantaneous nonfaulty skew at the latest
// round-begin annotation of round i (the paper's Bⁱ for the start-up
// algorithm).
func (r *RoundRecorder) SkewAtBegin(i int) float64 { return r.round(i).skew }

// FirstBegin returns the real time of round i's earliest begin annotation,
// and false if round i was not observed.
func (r *RoundRecorder) FirstBegin(i int) (clock.Real, bool) {
	rb := r.round(i)
	return rb.first, rb.seen
}

// MaxAbsAdj returns the largest |ADJ| over nonfaulty processes, optionally
// restricted to adjustments at or after real time from.
func (r *RoundRecorder) MaxAbsAdj(from clock.Real) float64 {
	i := sort.Search(len(r.peaks), func(k int) bool { return !(r.peaks[k].at < from) })
	if i == len(r.peaks) {
		return 0
	}
	return r.peaks[i].v
}

// Adjustments returns how many adjustments were recorded.
func (r *RoundRecorder) Adjustments() int { return r.adjs }

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

// NewValidityRecorder builds the Theorem 19 recorder from the paper
// parameters, anchored at the earliest and latest nonfaulty start times
// tmin0 and tmax0 and checking from tmax0 on.
func NewValidityRecorder(p analysis.Params, tmin0, tmax0 clock.Real) *ValidityRecorder {
	a1, a2, a3 := p.Validity()
	return &ValidityRecorder{
		Alpha1: a1, Alpha2: a2, Alpha3: a3,
		T0:    p.T0,
		TMin0: tmin0, TMax0: tmax0,
		From: tmax0,
	}
}

// Envelope is one checked sample: the nonfaulty local-time extremes Lo, Hi
// and the envelope's Floor and Ceiling on L − T⁰ at that instant.
type Envelope struct {
	Lo, Hi         clock.Local
	Floor, Ceiling float64
}

// Sample implements sim.Sampler.
func (v *ValidityRecorder) Sample(e *sim.Engine, _ bool) { v.Measure(e) }

// Measure samples e as Sample does — a sample before From asks for one at
// From — and returns the envelope it checked, ok false when it checked
// nothing. A checker of the envelope samples through it instead of
// evaluating the envelope again.
func (v *ValidityRecorder) Measure(e *sim.Engine) (env Envelope, ok bool) {
	t := e.Now()
	if t < v.From {
		e.SampleAt(v.From)
		return env, false
	}
	lo, hi, count := e.LocalTimeSpread(t)
	return v.Record(t, lo, hi, count)
}

// Record checks the nonfaulty local-time extremes lo, hi of count processes
// at real time t and returns the envelope there, ok false when it checked
// nothing. The envelope is monotone in L_p, so the per-process check
// reduces to the extremes: the lower bound is tightest for the minimum
// local time and the upper bound for the maximum.
func (v *ValidityRecorder) Record(t clock.Real, lo, hi clock.Local, count int) (env Envelope, ok bool) {
	if t < v.From || count == 0 {
		return env, false
	}
	v.samples += count
	env = Envelope{
		Lo: lo, Hi: hi,
		Floor:   float64(v.Alpha1*float64(t-v.TMax0)) - v.Alpha3,
		Ceiling: float64(v.Alpha2*float64(t-v.TMin0)) + v.Alpha3,
	}
	if d := env.Floor - (float64(lo) - v.T0); d > v.worst {
		v.worst = d
	}
	if d := (float64(hi) - v.T0) - env.Ceiling; d > v.worst {
		v.worst = d
	}
	return env, true
}

// WorstViolation returns the largest envelope violation observed; 0 means
// Theorem 19 held at every sample.
func (v *ValidityRecorder) WorstViolation() float64 { return v.worst }

// Samples returns how many (process, time) points were checked.
func (v *ValidityRecorder) Samples() int { return v.samples }

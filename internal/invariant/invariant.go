// Package invariant turns the paper's theorems into executable predicates
// over live engine state. Each checker is a sim observer that watches one
// guarantee at every sample point and records violations instead of
// aggregating statistics. The engine samples wherever a local time may bend
// (sim.Sampler) — around every correction change, at clock breakpoints, and
// at the first instant of each checker's window, which the checker asks for
// (sim.Engine.SampleAt) — so piecewise-linear quantities are seen at their
// exact extremes:
//
//   - Agreement — Theorem 16: after convergence, the nonfaulty logical
//     clocks stay within γ of each other.
//   - Validity — Theorem 19: every nonfaulty logical clock advances inside
//     the (α₁, α₂, α₃) envelope of real time.
//   - Monotonicity — physical clocks are strictly increasing and the only
//     backward step the algorithm ever applies is an adjustment, so between
//     consecutive observations a nonfaulty local time may decrease by at
//     most the Theorem 4(a) bound.
//   - AdjustmentBound — Theorem 4(a): every nonfaulty |ADJ| is at most
//     (1+ρ)(β+ε) + ρδ.
//
// The conformance harness (experiment E17) installs a Suite of all four
// against every adversary strategy in internal/faults; they must all hold
// for any Byzantine behavior whenever f < n/3, and agreement must be
// breakable when f ≥ n/3 — that sharpness pair is the paper's whole claim.
package invariant

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Violation is one observed failure of a predicate.
type Violation struct {
	Invariant string
	At        clock.Real
	Proc      sim.ProcID // -1 when not attributable to one process
	Amount    float64    // how far past the bound, in seconds
	Detail    string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	who := "all"
	if v.Proc >= 0 {
		who = fmt.Sprintf("p%d", v.Proc)
	}
	return fmt.Sprintf("%s at t=%.6f (%s): over by %.3gs — %s", v.Invariant, float64(v.At), who, v.Amount, v.Detail)
}

// Checker is the common read side of every invariant observer.
type Checker interface {
	Name() string
	// Ok reports whether no violation was recorded.
	Ok() bool
	// Checked returns how many predicate evaluations were performed; a
	// passing checker that never evaluated anything proves nothing.
	Checked() int64
	// Worst returns the largest overshoot observed (0 when clean).
	Worst() float64
	// Violations returns the recorded violations (capped; Count has the
	// true total).
	Violations() []Violation
	// Count returns the total number of violations, including unrecorded.
	Count() int64
}

// maxRecorded caps stored violations per checker so an execution that
// diverges (e.g. the sharpness check at f ≥ n/3, where every sample violates
// agreement) does not accumulate unbounded evidence.
const maxRecorded = 8

// recorder is the shared violation bookkeeping embedded in every checker.
type recorder struct {
	name    string
	checked int64
	count   int64
	worst   float64
	first   []Violation
}

// Name implements Checker.
func (r *recorder) Name() string { return r.name }

// Ok implements Checker.
func (r *recorder) Ok() bool { return r.count == 0 }

// Checked implements Checker.
func (r *recorder) Checked() int64 { return r.checked }

// Worst implements Checker.
func (r *recorder) Worst() float64 { return r.worst }

// Violations implements Checker.
func (r *recorder) Violations() []Violation { return r.first }

// Count implements Checker.
func (r *recorder) Count() int64 { return r.count }

func (r *recorder) violate(v Violation) {
	r.count++
	if v.Amount > r.worst {
		r.worst = v.Amount
	}
	if len(r.first) < maxRecorded {
		r.first = append(r.first, v)
	}
}

// Agreement checks Theorem 16: from the skew recorder's Warmup on, the
// nonfaulty local-time spread never exceeds Gamma. Warmup covers initial
// convergence — the theorem's γ is a steady-state bound, and executions may
// start anywhere inside the β-envelope of A4. The checker samples through
// the recorder and checks the spread it records.
type Agreement struct {
	recorder
	Gamma float64
	// Skew is the recorder the checker samples through; its Warmup is the
	// checker's.
	Skew *metrics.SkewRecorder
}

var _ sim.Sampler = (*Agreement)(nil)

// NewAgreement builds the Theorem 16 checker over skew, which it samples
// through.
func NewAgreement(gamma float64, skew *metrics.SkewRecorder) *Agreement {
	return &Agreement{recorder: recorder{name: "agreement"}, Gamma: gamma, Skew: skew}
}

// Sample implements sim.Sampler.
func (a *Agreement) Sample(e *sim.Engine, _ bool) { a.check(a.Skew.Measure(e)) }

func (a *Agreement) check(t clock.Real, skew float64, count int) {
	if t < a.Skew.Warmup || count < 2 {
		return
	}
	a.checked++
	if skew > a.Gamma {
		a.violate(Violation{
			Invariant: a.name, At: t, Proc: -1,
			Amount: skew - a.Gamma,
			Detail: fmt.Sprintf("skew %.3gs > γ %.3gs", skew, a.Gamma),
		})
	}
}

// Validity checks the Theorem 19 envelope
//
//	α₁(t − tmax⁰) − α₃ ≤ L_p(t) − T⁰ ≤ α₂(t − tmin⁰) + α₃
//
// for every nonfaulty p at every sample from From on, as the validity
// recorder it samples through evaluates it. The envelope is monotone in
// L_p, so the hot path checks only the spread extremes; the violating
// process is identified by a rescan on the (cold) failure path.
type Validity struct {
	recorder
	*metrics.ValidityRecorder
}

var _ sim.Sampler = (*Validity)(nil)

// NewValidity builds the Theorem 19 checker over rec, which it samples
// through.
func NewValidity(rec *metrics.ValidityRecorder) *Validity {
	return &Validity{recorder: recorder{name: "validity"}, ValidityRecorder: rec}
}

// Sample implements sim.Sampler.
func (v *Validity) Sample(e *sim.Engine, _ bool) {
	env, ok := v.Measure(e)
	if !ok {
		return
	}
	v.checked++
	lo, hi := float64(env.Lo)-v.T0, float64(env.Hi)-v.T0
	if d := env.Floor - lo; d > 0 {
		v.violate(Violation{
			Invariant: v.name, At: e.Now(), Proc: attribute(e, env.Lo),
			Amount: d,
			Detail: fmt.Sprintf("L−T⁰ = %.6gs below envelope floor %.6gs", lo, env.Floor),
		})
	}
	if d := hi - env.Ceiling; d > 0 {
		v.violate(Violation{
			Invariant: v.name, At: e.Now(), Proc: attribute(e, env.Hi),
			Amount: d,
			Detail: fmt.Sprintf("L−T⁰ = %.6gs above envelope ceiling %.6gs", hi, env.Ceiling),
		})
	}
}

// attribute finds a nonfaulty process whose local time equals the extreme
// value (cold path, only on violation). It reads the engine's local times of
// this sample, not the live walk: a windowed engine's replay samples the
// past, where the live corrections are already the cut's.
func attribute(e *sim.Engine, extreme clock.Local) sim.ProcID {
	ids, lts := e.LocalTimes()
	for i, lt := range lts {
		if lt == extreme {
			return ids[i]
		}
	}
	return -1
}

// Monotonicity checks that nonfaulty local time never moves backward by more
// than MaxBackstep between consecutive observations of the same process.
// Physical clocks are strictly increasing (§3.1), so the only legitimate
// backward step is a negative adjustment, bounded by Theorem 4(a).
type Monotonicity struct {
	recorder
	MaxBackstep float64

	prev []clock.Local // previous observation, parallel to Engine.LocalTimes
	ver  uint64        // configuration version prev was taken at
}

var _ sim.Sampler = (*Monotonicity)(nil)

// NewMonotonicity builds the backstep checker with the Theorem 4(a) bound.
func NewMonotonicity(maxBackstep float64) *Monotonicity {
	return &Monotonicity{recorder: recorder{name: "monotonicity"}, MaxBackstep: maxBackstep}
}

// Sample implements sim.Sampler.
func (m *Monotonicity) Sample(e *sim.Engine, _ bool) {
	ids, lts := e.LocalTimes()
	ver := e.ConfigVersion()
	if m.prev == nil {
		m.prev = make([]clock.Local, len(lts))
		copy(m.prev, lts)
		m.ver = ver
		return
	}
	if ver == m.ver && m.MaxBackstep >= 0 {
		// Same configuration as the previous observation: every local time
		// is the one already held and every drop is exactly 0.
		m.checked += int64(len(lts))
		return
	}
	for i, lt := range lts {
		m.checked++
		if drop := float64(m.prev[i] - lt); drop > m.MaxBackstep {
			m.violate(Violation{
				Invariant: m.name, At: e.Now(), Proc: ids[i],
				Amount: drop - m.MaxBackstep,
				Detail: fmt.Sprintf("local time stepped back %.3gs > bound %.3gs", drop, m.MaxBackstep),
			})
		}
	}
	copy(m.prev, lts)
	m.ver = ver
}

// AdjustmentBound checks Theorem 4(a) on the adjustment annotation stream:
// every nonfaulty ADJ satisfies |ADJ| ≤ Bound.
type AdjustmentBound struct {
	recorder
	Bound float64
	// Tag selects the annotation carrying adjustments; metrics.TagAdjust
	// when built by NewAdjustmentBound.
	Tag string
}

var _ sim.AnnotationSink = (*AdjustmentBound)(nil)

// NewAdjustmentBound builds the Theorem 4(a) checker.
func NewAdjustmentBound(bound float64) *AdjustmentBound {
	return &AdjustmentBound{recorder: recorder{name: "adjustment"}, Bound: bound, Tag: metrics.TagAdjust}
}

// OnAnnotation implements sim.AnnotationSink.
func (a *AdjustmentBound) OnAnnotation(e *sim.Engine, an sim.Annotation) {
	if an.Tag != a.Tag || e.Faulty(an.Proc) {
		return
	}
	a.checked++
	if v := math.Abs(an.Value); v > a.Bound {
		a.violate(Violation{
			Invariant: a.name, At: an.At, Proc: an.Proc,
			Amount: v - a.Bound,
			Detail: fmt.Sprintf("|ADJ| = %.3gs > bound %.3gs", v, a.Bound),
		})
	}
}

// Suite bundles the four theorem checkers for one execution.
type Suite struct {
	Agreement  *Agreement
	Validity   *Validity
	Monotonic  *Monotonicity
	Adjustment *AdjustmentBound
}

// NewSuite builds the standard checkers from the paper parameters, over
// recorders of their own. tmin0 and tmax0 are the earliest and latest
// nonfaulty start times (the validity anchors of Theorem 19), warmup the
// real time after which the steady-state agreement bound must hold.
func NewSuite(p analysis.Params, tmin0, tmax0, warmup clock.Real) *Suite {
	return Over(p, &metrics.SkewRecorder{Warmup: warmup}, metrics.NewValidityRecorder(p, tmin0, tmax0))
}

// Over builds the standard checkers over the given skew and validity
// recorders: the agreement and validity checkers sample through them, so
// they are registered in the recorders' place, not beside them.
func Over(p analysis.Params, skew *metrics.SkewRecorder, validity *metrics.ValidityRecorder) *Suite {
	return &Suite{
		Agreement:  NewAgreement(p.Gamma(), skew),
		Validity:   NewValidity(validity),
		Monotonic:  NewMonotonicity(p.AdjBound()),
		Adjustment: NewAdjustmentBound(p.AdjBound()),
	}
}

// Checkers returns the suite members in a fixed reporting order.
func (s *Suite) Checkers() []Checker {
	return []Checker{s.Agreement, s.Validity, s.Monotonic, s.Adjustment}
}

// Observers returns the members as engine observers for registration.
func (s *Suite) Observers() []sim.Observer {
	return []sim.Observer{s.Agreement, s.Validity, s.Monotonic, s.Adjustment}
}

// Ok reports whether every checker held.
func (s *Suite) Ok() bool {
	for _, c := range s.Checkers() {
		if !c.Ok() {
			return false
		}
	}
	return true
}

// Violations returns all recorded violations across the suite.
func (s *Suite) Violations() []Violation {
	var out []Violation
	for _, c := range s.Checkers() {
		out = append(out, c.Violations()...)
	}
	return out
}

// Summary renders one line per checker — "agreement ok (1234 checks)" or
// "validity VIOLATED ×3 (worst +1.2e-3s)" — for tables, tests, and logs.
func (s *Suite) Summary() string {
	out := ""
	for i, c := range s.Checkers() {
		if i > 0 {
			out += "; "
		}
		if c.Ok() {
			out += fmt.Sprintf("%s ok (%d checks)", c.Name(), c.Checked())
		} else {
			out += fmt.Sprintf("%s VIOLATED ×%d (worst +%.3gs)", c.Name(), c.Count(), c.Worst())
		}
	}
	return out
}

// Package simtest holds the engine's test oracles: the scan every observer
// used to run for itself, kept as the reference the engine's clock table is
// held against, and the per-delivery sampling the engine used to do, kept as
// the reference its sampling rule is held against.
package simtest

import (
	"math"
	"testing"

	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// LiveSpread is the live walk: one Engine.LocalTime call — a Clock.At and a
// CorrHolder.Corr through their interfaces — per nonfaulty process, with
// nothing mirrored or cached. It is the reference for Engine.LocalTimeSpread
// at any t and the "before" side of BenchmarkSpreadScan.
func LiveSpread(e *sim.Engine, t clock.Real) (lo, hi clock.Local, count int) {
	lo, hi = clock.Local(math.Inf(1)), clock.Local(math.Inf(-1))
	for _, p := range e.NonfaultyIDs() {
		lt, ok := e.LocalTime(p, t)
		if !ok {
			continue
		}
		count++
		if lt < lo {
			lo = lt
		}
		if lt > hi {
			hi = lt
		}
	}
	return lo, hi, count
}

// Oracle demands, at every callback the time-major engine offers, that what
// the clock table serves as Engine.LocalTimeSpread(now) equals the live
// NonfaultyIDs × LocalTime walk bit for bit, and every 16th time that
// Engine.LocalTimes and a historical LocalTimeSpread(t < now) do too. It is
// at once a sim.Sampler, a sim.AnnotationSink and a sim.DeliveryObserver
// (before every delivery), and Wrap makes it a sim.Adversary around another
// one (inside Receive, per message copy). A windowed engine refuses it: there
// the samples are replayed at the cut, where the live walk has moved on.
//
// A mismatch means either the table is wrong or an automaton broke the
// sim.CorrHolder contract — its correction moved outside its own Receive or
// a timeline action; the failure names the process, the time and both
// values. Only the first mismatch is reported.
type Oracle struct {
	// Fail reports a mismatch; NewOracle sets it to tb.Errorf — not Fatalf,
	// because a sharded engine's window cut may run on a worker goroutine.
	Fail func(format string, args ...any)
	// Checks counts comparisons made, so a test can refuse a vacuous pass.
	Checks int

	failed bool
	eng    *sim.Engine // learned at the first engine callback, for Wrap
}

// NewOracle returns an oracle that fails tb at the first mismatch.
func NewOracle(tb testing.TB) *Oracle { return &Oracle{Fail: tb.Errorf} }

var (
	_ sim.Sampler          = (*Oracle)(nil)
	_ sim.AnnotationSink   = (*Oracle)(nil)
	_ sim.DeliveryObserver = (*Oracle)(nil)
)

// Sample implements sim.Sampler. A pre sample reads the table with a row
// holding the correction from before a change on purpose, while the live
// walk already has the new one, so only post samples are checked; the
// delivery the change is made in was checked just before it.
func (o *Oracle) Sample(e *sim.Engine, pre bool) {
	if !pre {
		o.Check(e, "sample")
	}
}

// OnAnnotation implements sim.AnnotationSink.
func (o *Oracle) OnAnnotation(e *sim.Engine, a sim.Annotation) { o.Check(e, "annotation "+a.Tag) }

// OnDeliver implements sim.DeliveryObserver.
func (o *Oracle) OnDeliver(e *sim.Engine, _ sim.Message) { o.Check(e, "delivery") }

// Check compares the table's reads with the live walk at the engine's
// current instant; where labels the failure. The spread comes first and
// alone at most callbacks, LocalTimes and a historical read every 16th.
func (o *Oracle) Check(e *sim.Engine, where string) {
	o.eng = e
	if o.failed {
		return
	}
	o.Checks++
	now := e.Now()
	o.spread(e, now, where)
	if o.Checks%16 != 0 || o.failed {
		return
	}
	o.localTimes(e, now, where)
	o.spread(e, now-clock.Real(float64(o.Checks%7+1)*0.37e-3), where+" (historical)")
}

// localTimes compares LocalTimes with the live walk, process by process.
func (o *Oracle) localTimes(e *sim.Engine, now clock.Real, where string) {
	ids, lts := e.LocalTimes()
	k := 0
	for _, p := range e.NonfaultyIDs() {
		want, ok := e.LocalTime(p, now)
		if !ok {
			continue
		}
		if k >= len(ids) || ids[k] != p {
			o.fail("%s at t=%v: LocalTimes lists %v, the live walk reaches process %d at position %d", where, now, ids, p, k)
			return
		}
		if bits(lts[k]) != bits(want) {
			o.fail("%s at t=%v: process %d: the clock table has local time %v (%#x), the live walk %v (%#x), apart by %v — the table is wrong, or the process's correction changed outside its own Receive or a timeline action (sim.CorrHolder contract)",
				where, now, p, lts[k], bits(lts[k]), want, bits(want), lts[k]-want)
			return
		}
		k++
	}
	if k != len(ids) {
		o.fail("%s at t=%v: LocalTimes lists %d processes, the live walk finds %d", where, now, len(ids), k)
	}
}

func (o *Oracle) spread(e *sim.Engine, t clock.Real, where string) {
	if o.failed {
		return
	}
	wlo, whi, wn := LiveSpread(e, t)
	for read := 0; read < 2; read++ { // the second read is served from the first's evaluation
		lo, hi, n := e.LocalTimeSpread(t)
		if bits(lo) != bits(wlo) || bits(hi) != bits(whi) || n != wn {
			o.fail("%s, read %d at now=%v: LocalTimeSpread(%v) = (%v, %v, %d), live walk = (%v, %v, %d)",
				where, read, e.Now(), t, lo, hi, n, wlo, whi, wn)
			return
		}
	}
}

func (o *Oracle) fail(format string, args ...any) {
	o.failed = true
	o.Fail(format, args...)
}

func bits(v clock.Local) uint64 { return math.Float64bits(float64(v)) }

// Wrap returns adv with the oracle's check made at each of its callbacks —
// Retime runs inside the sender's Receive, once per message copy, which is
// where the adaptive adversaries read the spread. Hooks adv does not have
// stay no-ops. The oracle must also be registered as an observer: it learns
// the engine from its first callback.
func (o *Oracle) Wrap(adv sim.Adversary) sim.Adversary {
	w := &wrapped{o: o, adv: adv}
	w.send, _ = adv.(sim.SendHook)
	w.recv, _ = adv.(sim.ReceiveHook)
	return w
}

type wrapped struct {
	o    *Oracle
	adv  sim.Adversary
	send sim.SendHook
	recv sim.ReceiveHook
}

func (w *wrapped) check(where string) {
	if w.o.eng != nil {
		w.o.Check(w.o.eng, where)
	}
}

func (w *wrapped) Retime(v *sim.AdversaryView, from, to sim.ProcID, sentAt clock.Real, base float64) float64 {
	w.check("adversary retime")
	d := w.adv.Retime(v, from, to, sentAt, base)
	w.check("adversary retime (after)")
	return d
}

func (w *wrapped) OnSend(v *sim.AdversaryView, m sim.Message) {
	w.check("adversary send hook")
	if w.send != nil {
		w.send.OnSend(v, m)
	}
}

func (w *wrapped) OnReceive(v *sim.AdversaryView, m sim.Message) {
	w.check("adversary receive hook")
	if w.recv != nil {
		w.recv.OnReceive(v, m)
	}
}

// Dense is the reference the engine's sampling rule is held against: the
// live walk (LiveSpread) at every delivery and at every point where the
// engine samples — the per-delivery sampling the engine did before it
// sampled only where a local time may bend. Register it on the time-major
// engine, which has deliveries to observe; at a pre sample its live walk
// reads the configuration after the change, whose state before it the
// delivery's own point holds. Feed hands the points to a recorder's Record,
// whose maxima must then equal the engine-driven recorder's bit for bit.
type Dense struct {
	points []densePoint
}

type densePoint struct {
	at     clock.Real
	lo, hi clock.Local
	count  int
}

var (
	_ sim.Sampler          = (*Dense)(nil)
	_ sim.DeliveryObserver = (*Dense)(nil)
)

// Sample implements sim.Sampler.
func (d *Dense) Sample(e *sim.Engine, _ bool) { d.add(e) }

// OnDeliver implements sim.DeliveryObserver.
func (d *Dense) OnDeliver(e *sim.Engine, _ sim.Message) { d.add(e) }

func (d *Dense) add(e *sim.Engine) {
	lo, hi, count := LiveSpread(e, e.Now())
	d.points = append(d.points, densePoint{e.Now(), lo, hi, count})
}

// Points returns how many points the reference holds.
func (d *Dense) Points() int { return len(d.points) }

// Feed calls record with every point, in the order they were taken.
func (d *Dense) Feed(record func(t clock.Real, lo, hi clock.Local, count int)) {
	for _, p := range d.points {
		record(p.at, p.lo, p.hi, p.count)
	}
}

// SameBits fails t when two maxima differ in any bit.
func SameBits(t testing.TB, what string, want, got float64) {
	t.Helper()
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Errorf("%s: %v, want %v (apart by %v)", what, got, want, got-want)
	}
}

// CheckSkew holds a skew recorder to a fresh one with its warm-up fed the
// dense reference.
func CheckSkew(t testing.TB, skew *metrics.SkewRecorder, ref *Dense) {
	t.Helper()
	if ref.Points() < 100 {
		t.Fatalf("only %d reference points", ref.Points())
	}
	want := &metrics.SkewRecorder{Warmup: skew.Warmup}
	ref.Feed(want.Record)
	SameBits(t, "max skew against the dense reference", want.Max(), skew.Max())
	SameBits(t, "steady skew against the dense reference", want.MaxAfterWarmup(), skew.MaxAfterWarmup())
}

// CheckMaxima holds the maxima of res's skew recorder, validity recorder and
// agreement checker to fresh recorders with their parameters fed the dense
// reference. The checker's largest overshoot is the steady skew's excess over
// γ, if any: float subtraction is monotone.
func CheckMaxima(t testing.TB, res *exp.Result, ref *Dense) {
	t.Helper()
	CheckSkew(t, res.Skew, ref)
	if v := res.Validity; v != nil {
		want := &metrics.ValidityRecorder{Alpha1: v.Alpha1, Alpha2: v.Alpha2, Alpha3: v.Alpha3, T0: v.T0, TMin0: v.TMin0, TMax0: v.TMax0, From: v.From}
		ref.Feed(func(t clock.Real, lo, hi clock.Local, count int) { want.Record(t, lo, hi, count) })
		SameBits(t, "validity violation against the dense reference", want.WorstViolation(), v.WorstViolation())
	}
	if res.Invariants != nil {
		a := res.Invariants.Agreement
		want := &metrics.SkewRecorder{Warmup: a.Skew.Warmup}
		ref.Feed(want.Record)
		SameBits(t, "agreement overshoot against the dense reference", max(0, want.MaxAfterWarmup()-a.Gamma), a.Worst())
	}
}

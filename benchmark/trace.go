package main

import "time"

// stamp is a monotonic reading in nanoseconds since the process started.
// time.Since on a fixed base costs one clock read where time.Now costs two,
// and a decorated run takes several spans per delivered event.
type stamp int64

var processStart = time.Now()

func now() stamp { return stamp(time.Since(processStart)) }

func nsSince(t stamp) float64 { return float64(now() - t) }

// acc is what a decorator accumulates: calls, nanoseconds inside them, and a
// unit count when a call covers several units (SampleAll covers n copies).
// One acc has one writer — a decorator per process, per sender or per
// observer, each owned by one shard — so tracing adds no shared writes; they
// are summed after Run.
type acc struct {
	calls, units, ns int64
}

func (a *acc) add(since stamp, units int64) {
	a.calls++
	a.units += units
	a.ns += int64(now() - since)
}

func (a *acc) merge(b acc) {
	a.calls += b.calls
	a.units += b.units
	a.ns += b.ns
}

// tracer holds the calibrated cost of the timing itself. An empty span
// records `read` ns (the part of the two clock readings that falls between
// them) and costs its caller `cost` ns in all; self times are corrected by
// both (see settle). cost is reported as trace.timer_ns.
type tracer struct {
	read, cost float64
}

// calibrate measures an empty decorator span.
func calibrate() tracer {
	const n = 200_000
	var a acc
	t0 := now()
	for i := 0; i < n; i++ {
		a.add(now(), 0)
	}
	return tracer{read: float64(a.ns) / n, cost: nsSince(t0) / n}
}

// spanRecord is one aggregated span of one op: every call of that name under
// that parent folded together — an op delivers up to six million events, so
// the trace keeps one record per (op, name, parent), never one per call.
type spanRecord struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Calls  int64  `json:"calls"`
	// Units is the unit count where a call covers several (message copies
	// for delay.sample); zero elsewhere.
	Units   int64   `json:"units,omitempty"`
	TotalNs float64 `json:"total_ns"`
	// SelfNs is TotalNs minus what child spans cover and minus the timing's
	// own cost, in CPU-ns: for a span that ran on Parallel goroutines at
	// once (sim.run on the sharded engine) the budget is TotalNs × Parallel.
	SelfNs   float64 `json:"self_ns"`
	Parallel int     `json:"parallel,omitempty"`
	// Timed marks spans recorded per call by a decorator, whose clock
	// readings are worth correcting for; coarse spans are read once per op.
	Timed bool `json:"timed,omitempty"`
}

// settle fills in every span's self time. A timed span's own total holds
// tr.read per call that is not its work; and each call of a timed child cost
// the parent tr.cost − tr.read beyond what the child recorded.
func settle(spans []spanRecord, tr tracer) {
	for i := range spans {
		s := &spans[i]
		s.SelfNs = s.TotalNs * float64(max(s.Parallel, 1))
		if s.Timed {
			s.SelfNs -= tr.read * float64(s.Calls)
		}
		for _, c := range spans {
			if c.Parent != s.Name || c.Op != s.Op {
				continue
			}
			s.SelfNs -= c.TotalNs
			if c.Timed {
				s.SelfNs -= (tr.cost - tr.read) * float64(c.Calls)
			}
		}
	}
}

// opTrace is the trace of one op: its spans and the exact counts taken at
// the same boundaries.
type opTrace struct {
	op     int
	spans  []spanRecord
	counts map[string]float64
}

func newOpTrace(op int) *opTrace { return &opTrace{op: op, counts: map[string]float64{}} }

// coarse records a span read once (or a few times) per op.
func (t *opTrace) coarse(name, parent string, ns float64) {
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.Parent == parent {
			s.Calls++
			s.TotalNs += ns
			return
		}
	}
	t.spans = append(t.spans, spanRecord{Op: t.op, Name: name, Parent: parent, Calls: 1, TotalNs: ns})
}

// publicCall is the spanFunc of the workloads traced at their public calls
// only: a coarse span directly under op.
func (t *opTrace) publicCall(name string, since stamp) { t.coarse(name, "op", nsSince(since)) }

// timed records the sum of a decorator's accumulators.
func (t *opTrace) timed(name, parent string, a acc) {
	if a.calls == 0 {
		return
	}
	t.spans = append(t.spans, spanRecord{
		Op: t.op, Name: name, Parent: parent, Timed: true,
		Calls: a.calls, Units: a.units, TotalNs: float64(a.ns),
	})
}

// span returns the records with the given name (one per parent).
func (t *opTrace) span(name string) (total, self float64, calls, units int64) {
	for _, s := range t.spans {
		if s.Name == name {
			total += s.TotalNs
			self += s.SelfNs
			calls += s.Calls
			units += s.Units
		}
	}
	return
}

// timerNs is what the timing itself cost inside this op.
func (t *opTrace) timerNs(tr tracer) float64 {
	var calls int64
	for _, s := range t.spans {
		if s.Timed {
			calls += s.Calls
		}
	}
	return tr.cost * float64(calls)
}

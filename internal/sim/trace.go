package sim

import (
	"fmt"
	"io"

	"repro/internal/clock"
)

// TraceEvent is one recorded action of an execution: the delivery of a
// message (ordinary, START or TIMER) or an annotation emitted by a process.
type TraceEvent struct {
	At      clock.Real
	Proc    ProcID // recipient (or annotating process)
	From    ProcID // sender; equals Proc for timers/annotations
	Kind    Kind   // zero for annotations
	Phys    clock.Local
	Detail  string // rendered payload or annotation tag=value
	IsAnnot bool
}

// Tracer records the execution as a bounded event log — the §2.3 sequence of
// actions, made inspectable. Register it with Engine.Observe and render with
// WriteTo. A Limit of 0 keeps the default 10k events; recording stops
// silently at the limit (Truncated reports it).
type Tracer struct {
	// Limit bounds the number of recorded events.
	Limit int

	events    []TraceEvent
	truncated bool
}

const defaultTraceLimit = 10_000

var (
	_ AnnotationSink   = (*Tracer)(nil)
	_ DeliveryObserver = (*Tracer)(nil)
)

// NewTracer returns a tracer for all processes.
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = defaultTraceLimit
	}
	return &Tracer{Limit: limit}
}

// OnDeliver implements DeliveryObserver.
func (t *Tracer) OnDeliver(e *Engine, m Message) {
	detail := ""
	if m.Payload != nil {
		detail = fmt.Sprintf("%+v", m.Payload)
	}
	t.record(TraceEvent{
		At:     e.Now(),
		Proc:   m.To,
		From:   m.From,
		Kind:   m.Kind,
		Phys:   e.PhysTime(m.To, e.Now()),
		Detail: detail,
	})
}

// OnAnnotation implements AnnotationSink.
func (t *Tracer) OnAnnotation(e *Engine, a Annotation) {
	t.record(TraceEvent{
		At:      a.At,
		Proc:    a.Proc,
		From:    a.Proc,
		Phys:    e.PhysTime(a.Proc, a.At),
		Detail:  fmt.Sprintf("%s=%g", a.Tag, a.Value),
		IsAnnot: true,
	})
}

func (t *Tracer) record(ev TraceEvent) {
	limit := t.Limit
	if limit <= 0 {
		limit = defaultTraceLimit
	}
	if len(t.events) >= limit {
		t.truncated = true
		return
	}
	t.events = append(t.events, ev)
}

// Events returns the recorded log in delivery order.
func (t *Tracer) Events() []TraceEvent { return t.events }

// Truncated reports whether the limit cut the log short.
func (t *Tracer) Truncated() bool { return t.truncated }

// WriteTo renders the log, one line per action:
//
//	t=5.010000s  p2 ← p0  ORDINARY  {Mark:5}         (phys 5.010050)
//	t=5.016500s  p2      TIMER                        (phys 5.016550)
//	t=5.016500s  p2      # adj=0.000123               (phys 5.016550)
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, ev := range t.events {
		var line string
		switch {
		case ev.IsAnnot:
			line = fmt.Sprintf("t=%.6fs  p%-2d      # %-28s (phys %.6f)\n",
				float64(ev.At), ev.Proc, ev.Detail, float64(ev.Phys))
		case ev.Kind == KindOrdinary:
			line = fmt.Sprintf("t=%.6fs  p%-2d ← p%-2d %-9s %-18s (phys %.6f)\n",
				float64(ev.At), ev.Proc, ev.From, ev.Kind, ev.Detail, float64(ev.Phys))
		default:
			line = fmt.Sprintf("t=%.6fs  p%-2d      %-9s %-18s (phys %.6f)\n",
				float64(ev.At), ev.Proc, ev.Kind, ev.Detail, float64(ev.Phys))
		}
		n, err := io.WriteString(w, line)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	if t.truncated {
		n, err := io.WriteString(w, "… trace truncated at limit\n")
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

package sim

import (
	"strings"
	"testing"

	"repro/internal/clock"
)

// traceActor broadcasts a payload and annotates on START.
type traceActor struct{}

func (traceActor) Receive(ctx *Context, m Message) {
	if m.Kind != KindStart {
		return
	}
	ctx.Broadcast("ping")
	ctx.Annotate("mark", 1)
	ctx.SetTimer(ctx.PhysNow()+1, nil)
}

func traceEngine(t *testing.T, tr *Tracer) *Engine {
	t.Helper()
	n := 2
	procs := []Process{traceActor{}, traceActor{}}
	e, err := New(Config{
		Procs:   procs,
		Clocks:  []clock.Clock{clock.Linear(0, 1), clock.Linear(0, 1)},
		StartAt: []clock.Real{0, 0},
		Delay:   ConstantDelay{Delta: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = n
	e.Observe(tr)
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTracerRecordsEverything(t *testing.T) {
	tr := NewTracer(0)
	traceEngine(t, tr)
	// 2 STARTs, 4 ordinary deliveries (each broadcast reaches both),
	// 2 timers, 2 annotations = 10 events.
	if got := len(tr.Events()); got != 10 {
		t.Fatalf("recorded %d events, want 10", got)
	}
	var starts, ord, timers, annots int
	for _, ev := range tr.Events() {
		switch {
		case ev.IsAnnot:
			annots++
		case ev.Kind == KindStart:
			starts++
		case ev.Kind == KindOrdinary:
			ord++
		case ev.Kind == KindTimer:
			timers++
		}
	}
	if starts != 2 || ord != 4 || timers != 2 || annots != 2 {
		t.Errorf("event mix starts=%d ord=%d timers=%d annots=%d", starts, ord, timers, annots)
	}
	if tr.Truncated() {
		t.Error("unexpected truncation")
	}
}

// TestTracerZeroValueTracesAll checks that a Tracer{} literal traces every
// process.
func TestTracerZeroValueTracesAll(t *testing.T) {
	tr := &Tracer{}
	traceEngine(t, tr)
	seen := map[ProcID]bool{}
	for _, ev := range tr.Events() {
		seen[ev.Proc] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("Tracer{} zero value should trace every process, saw %v", seen)
	}
}

func TestTracerLimit(t *testing.T) {
	tr := NewTracer(3)
	traceEngine(t, tr)
	if len(tr.Events()) != 3 {
		t.Fatalf("limit ignored: %d events", len(tr.Events()))
	}
	if !tr.Truncated() {
		t.Error("truncation not reported")
	}
	var b strings.Builder
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "truncated") {
		t.Error("rendered trace missing truncation notice")
	}
}

func TestTracerRendering(t *testing.T) {
	tr := NewTracer(0)
	traceEngine(t, tr)
	var b strings.Builder
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"START", "ORDINARY", "TIMER", "# mark=1", "← p0", "ping"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != 10 {
		t.Errorf("trace has %d lines, want 10", lines)
	}
}

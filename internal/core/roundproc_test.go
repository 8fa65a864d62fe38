package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// recorder is a Discipline, an annotation sink and a delivery observer that
// write one shared log, so the order in which RoundProc consults the
// discipline, annotates and is woken can be read off a single slice.
type recorder struct {
	eng *sim.Engine
	adj float64
	log []string
}

func (r *recorder) logf(format string, a ...any) { r.log = append(r.log, fmt.Sprintf(format, a...)) }

func (r *recorder) Payload(mark clock.Local) any {
	r.logf("payload T=%v sent=%d", float64(mark), r.eng.MessagesSent())
	return mark
}

func (r *recorder) Hear(m sim.Message, local clock.Local) {
	r.logf("hear %v local=%v", m.Payload, float64(local))
}

func (r *recorder) Adjust(mark clock.Local) float64 {
	r.logf("adjust T=%v", float64(mark))
	return r.adj
}

func (r *recorder) OnAnnotation(_ *sim.Engine, a sim.Annotation) { r.logf("%s %v", a.Tag, a.Value) }

func (r *recorder) OnDeliver(_ *sim.Engine, m sim.Message) {
	if m.Kind != sim.KindOrdinary {
		r.logf("%v at=%v", m.Kind, float64(m.DeliverAt))
	}
}

// prodder delivers to the RoundProc and, after its START, prods it with a
// second START and a foreign TIMER while FLAG = UPDATE.
type prodder struct {
	*core.RoundProc
	rec *recorder
}

func (p prodder) Receive(ctx *sim.Context, m sim.Message) {
	p.RoundProc.Receive(ctx, m)
	if m.Kind == sim.KindStart {
		before := len(p.rec.log)
		p.RoundProc.Receive(ctx, sim.Message{Kind: sim.KindStart})
		p.RoundProc.Receive(ctx, sim.Message{Kind: sim.KindTimer, Payload: "foreign"})
		if len(p.rec.log) != before {
			p.rec.logf("FLAG = UPDATE did not ignore a START or foreign TIMER")
		}
	}
}

// TestRoundProcSchedule pins the §4.2 skeleton every Discipline runs on, on a
// one-process system with a perfect clock (so physical time is real time)
// and constant delay δ: Payload is asked before the broadcast leaves, Hear
// sees local = Ph + CORR, Adjust precedes the adjust/complete annotations,
// the timers land at T + window − CORR and Tⁱ⁺¹ − CORR, and a START or a
// foreign TIMER while FLAG = UPDATE changes nothing.
func TestRoundProcSchedule(t *testing.T) {
	p := analysis.Default(4, 1)
	p.N, p.F = 1, 0
	for _, tc := range []struct {
		name   string
		corr   float64 // initial CORR
		window float64
		adj    float64 // what the discipline returns every round
	}{
		{"faithful window, zero ADJ", 0.25, p.Window(), 0},
		{"window ×0.75, positive ADJ", 0.25, 0.75 * p.Window(), 1e-3},
		{"negative CORR, negative ADJ", -0.5, p.Window(), -2e-3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{adj: tc.adj}
			rp := core.NewRoundProc(p, tc.window, rec, clock.Local(tc.corr))
			start := clock.Real(p.T0 - tc.corr) // A4: local time reaches T⁰
			e, err := sim.New(sim.Config{
				Procs:   []sim.Process{prodder{rp, rec}},
				Clocks:  []clock.Clock{clock.Linear(0, 1)},
				StartAt: []clock.Real{start},
				Delay:   sim.ConstantDelay{Delta: p.Delta},
			})
			if err != nil {
				t.Fatal(err)
			}
			rec.eng = e
			if err := e.Observe(rec); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(start + clock.Real(p.P+p.Delta/2)); err != nil {
				t.Fatal(err)
			}

			t0, corr1 := p.T0, tc.corr+tc.adj
			update := t0 + tc.window - tc.corr // T + window − CORR
			next := t0 + p.P - corr1           // T¹ − CORR after the update
			want := []string{
				fmt.Sprintf("%v at=%v", sim.KindStart, float64(start)),
				fmt.Sprintf("%s 0", metrics.TagRoundBegin),
				fmt.Sprintf("payload T=%v sent=0", t0),
				fmt.Sprintf("hear %v local=%v", t0, float64(start)+p.Delta+tc.corr),
				fmt.Sprintf("%v at=%v", sim.KindTimer, update),
				fmt.Sprintf("adjust T=%v", t0),
				fmt.Sprintf("%s %v", metrics.TagAdjust, tc.adj),
				fmt.Sprintf("%s 0", metrics.TagRoundComplete),
				fmt.Sprintf("%v at=%v", sim.KindTimer, next),
				fmt.Sprintf("%s 1", metrics.TagRoundBegin),
				fmt.Sprintf("payload T=%v sent=1", t0+p.P),
			}
			if !reflect.DeepEqual(rec.log, want) {
				t.Errorf("log:\n got %q\nwant %q", rec.log, want)
			}
			if got := rp.Corr(); got != clock.Local(corr1) || rp.Round() != 1 {
				t.Errorf("CORR = %v, round %d; want %v, round 1", got, rp.Round(), corr1)
			}
		})
	}
}

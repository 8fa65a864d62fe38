package core_test

import (
	"math"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sim"
)

// doubler is a faulty process that runs the algorithm and, at each of its
// STARTs and TIMERs, sends once more to the lower half of the ids: there its
// two copies of a round's message often land in one window, among the
// nonfaulty arrivals, while the upper half takes whole batches.
type doubler struct{ p *core.Proc }

func (d doubler) Receive(ctx *sim.Context, m sim.Message) {
	d.p.Receive(ctx, m)
	if m.Kind != sim.KindOrdinary {
		ctx.Multicast(0, sim.ProcID(ctx.N()/2), core.TMsg{Mark: ctx.PhysNow()})
	}
}

// oneByOne hides a Proc's ReceiveCopies: a windowed engine delivers its
// copies one Receive at a time.
type oneByOne struct{ p *core.Proc }

func (o oneByOne) Receive(ctx *sim.Context, m sim.Message) { o.p.Receive(ctx, m) }
func (o oneByOne) Corr() clock.Local                       { return o.p.Corr() }

// annotLog records every annotation, bit for bit.
type annotLog []sim.Annotation

func (l *annotLog) OnAnnotation(_ *sim.Engine, a sim.Annotation) { *l = append(*l, a) }

// TestReceiveCopiesMatchesReceive: core.Proc's batched receive is its
// per-copy one. With the §9.3 stagger, §7's K = 2 sub-exchanges, a
// core.CrashRejoin that dies mid-run and a faulty sender whose copies repeat
// in a window, batched runs at k = 1, 2 and 3 emit the annotations — every
// round begin and adjustment, at its real time — and end at the corrections
// of the time-major run and of windowed runs that deliver a copy per Receive.
func TestReceiveCopiesMatchesReceive(t *testing.T) {
	const n, f = 7, 2
	cfg := defaultCfg(n, f)
	cfg.K = 2
	cfg.Stagger = 1e-4
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func(shards int, batch bool) (annotLog, []clock.Local) {
		clocks := make([]clock.Clock, n)
		for i := range clocks {
			clocks[i] = clock.ConstantDrift{RhoBound: cfg.Rho}.Build(i, n)
		}
		corrs := core.InitialCorrsWithinBeta(cfg, clocks, 0.9*cfg.Beta)
		procs := make([]sim.Process, n)
		for i := range n - 2 {
			p := core.NewProc(cfg, corrs[i])
			procs[i] = p
			if !batch {
				procs[i] = oneByOne{p}
			}
		}
		procs[n-2] = core.NewCrashRejoin(cfg, corrs[n-2], clock.Local(cfg.T0+1.5*cfg.P))
		procs[n-1] = doubler{core.NewProc(cfg, corrs[n-1])}
		e, err := sim.New(sim.Config{
			Procs:   procs,
			Clocks:  clocks,
			StartAt: core.StartTimes(cfg, clocks, corrs),
			Delay:   sim.UniformDelay{Delta: cfg.Delta, Eps: cfg.Eps},
			Faulty:  []bool{n - 2: true, n - 1: true},
			Seed:    5,
			Shards:  shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		var log annotLog
		if err := e.Observe(&log); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(clock.Real(cfg.T0 + 16*cfg.P)); err != nil {
			t.Fatal(err)
		}
		var corr []clock.Local
		for _, p := range procs[:n-1] { // the doubler's correction is not sim's to read
			corr = append(corr, p.(sim.CorrHolder).Corr())
		}
		return log, corr
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	want, wantCorr := run(0, true)
	if len(want) < 16*(n-2) {
		t.Fatalf("only %d annotations", len(want))
	}
	for _, r := range []struct {
		shards int
		batch  bool
	}{{1, false}, {2, false}, {1, true}, {2, true}, {3, true}} {
		got, corr := run(r.shards, r.batch)
		if len(got) != len(want) {
			t.Fatalf("k=%d batch=%v: %d annotations, time-major %d", r.shards, r.batch, len(got), len(want))
		}
		for i, a := range got {
			if w := want[i]; a.Proc != w.Proc || a.Tag != w.Tag || !same(float64(a.At), float64(w.At)) || !same(a.Value, w.Value) {
				t.Fatalf("k=%d batch=%v: annotation %d is %+v, time-major %+v", r.shards, r.batch, i, a, w)
			}
		}
		for i, c := range corr {
			if !same(float64(c), float64(wantCorr[i])) {
				t.Fatalf("k=%d batch=%v: process %d ends at correction %v, time-major %v", r.shards, r.batch, i, c, wantCorr[i])
			}
		}
	}
}

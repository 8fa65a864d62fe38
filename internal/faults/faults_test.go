package faults_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/sim"
)

func cfg7() core.Config { return core.Config{Params: analysis.Default(7, 2)} }

func runWith(t *testing.T, cfg core.Config, mix map[sim.ProcID]func() sim.Process) *exp.Result {
	t.Helper()
	res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 12, Faults: mix})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSilentTolerated(t *testing.T) {
	cfg := cfg7()
	res := runWith(t, cfg, map[sim.ProcID]func() sim.Process{
		1: func() sim.Process { return faults.Silent{} },
		4: func() sim.Process { return faults.Silent{} },
	})
	if got := res.Skew.Max(); got > cfg.Gamma() {
		t.Errorf("skew %v exceeds γ %v with silent faults", got, cfg.Gamma())
	}
}

func TestCrashAfterStopsActing(t *testing.T) {
	cfg := cfg7()
	sends := sendTimes{}
	res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 12, Observers: []sim.Observer{sends},
		Faults: map[sim.ProcID]func() sim.Process{
			6: func() sim.Process { return core.NewCrashRejoin(cfg, 0, 5.0) },
		}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Skew.Max(); got > cfg.Gamma() {
		t.Errorf("skew %v exceeds γ %v with a mid-run crash", got, cfg.Gamma())
	}
	// The crashed automaton is frozen: it broadcast its round marks up to
	// round 4 and nothing from round 5 (physical time 5) on.
	if len(sends[6]) == 0 || slices.Max(sends[6]) > 4.5 {
		t.Errorf("crashed process sent at %v, want sends before and none after its crash time", sends[6])
	}
}

// sendTimes records, per sender, the send time of every delivered
// ordinary message.
type sendTimes map[sim.ProcID][]float64

func (s sendTimes) OnDeliver(_ *sim.Engine, m sim.Message) {
	if m.Kind == sim.KindOrdinary {
		s[m.From] = append(s[m.From], float64(m.SentAt))
	}
}

func TestNoiseTolerated(t *testing.T) {
	cfg := cfg7()
	res := runWith(t, cfg, map[sim.ProcID]func() sim.Process{
		0: func() sim.Process { return &faults.Noise{Cfg: cfg, Burst: 4} },
		3: func() sim.Process { return &faults.Noise{Cfg: cfg, Burst: 4} },
	})
	if got := res.Skew.Max(); got > cfg.Gamma() {
		t.Errorf("skew %v exceeds γ %v with noise faults", got, cfg.Gamma())
	}
}

func TestStaleReplayTolerated(t *testing.T) {
	cfg := cfg7()
	res := runWith(t, cfg, map[sim.ProcID]func() sim.Process{
		2: func() sim.Process { return &faults.StaleReplay{Cfg: cfg, Offset: 3e-3} },
		5: func() sim.Process { return &faults.StaleReplay{Cfg: cfg, Offset: 5e-3} },
	})
	if got := res.Skew.Max(); got > cfg.Gamma() {
		t.Errorf("skew %v exceeds γ %v with stale-replay faults", got, cfg.Gamma())
	}
}

func TestTwoFacedTolerated(t *testing.T) {
	cfg := cfg7()
	res := runWith(t, cfg, map[sim.ProcID]func() sim.Process{
		5: func() sim.Process { return &faults.TwoFaced{Cfg: cfg, Lead: 4e-3, Lag: 4e-3} },
		6: func() sim.Process { return &faults.TwoFaced{Cfg: cfg, Lead: 4e-3, Lag: 4e-3} },
	})
	if got := res.Skew.Max(); got > cfg.Gamma() {
		t.Errorf("skew %v exceeds γ %v with two-faced faults", got, cfg.Gamma())
	}
}

func TestLyingMarkHarmless(t *testing.T) {
	cfg := cfg7()
	// A LyingMark process is *not* marked faulty here: it behaves honestly
	// in timing, so agreement must hold even counting it as nonfaulty.
	res, err := exp.Run(exp.Workload{
		Cfg:    cfg,
		Rounds: 12,
		MakeProc: func(id sim.ProcID, corr clock.Local) sim.Process {
			p := core.NewProc(cfg, corr)
			if id == 3 {
				return &faults.LyingMark{Inner: p}
			}
			return p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Skew.Max(); got > cfg.Gamma() {
		t.Errorf("skew %v exceeds γ %v with a lying-mark process", got, cfg.Gamma())
	}
}

// TestTwoFacedRoundAllocs pins what one round of the timed-send schedule
// allocates: the payload box alone, and nothing once the strategy holds the
// run's interned round messages. The n timed sends are armed with pointers
// into a slot of the strategy's ring, reused once its sends have fired, so
// a send boxed per recipient reads n more, and a schedule that plans a
// round through a closure built per round reads one more.
func TestTwoFacedRoundAllocs(t *testing.T) {
	cfg := cfg7()
	for _, tc := range []struct {
		name string
		msgs *core.RoundMsgs
		want float64
	}{
		{"boxed", nil, 1},
		{"interned", core.NewRoundMsgs(cfg, 200), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			procs := make([]sim.Process, cfg.N)
			clocks := make([]clock.Clock, cfg.N)
			for i := range procs {
				procs[i], clocks[i] = faults.Silent{}, clock.Linear(0, 1)
			}
			tf := &faults.TwoFaced{Cfg: cfg, Lead: 3 * cfg.Eps, Lag: 3 * cfg.Eps}
			tf.UseRoundMsgs(tc.msgs)
			procs[6] = tf
			e, err := sim.New(sim.Config{
				Procs: procs, Clocks: clocks, StartAt: make([]clock.Real, cfg.N),
				Delay: sim.ConstantDelay{Delta: cfg.Delta},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Each Run slice ends mid-round, so it holds exactly one planning
			// step, its n relays and their deliveries; the first slices warm
			// the queue.
			round := 0
			oneRound := func() {
				round++
				if err := e.Run(clock.Real(cfg.T0 + (float64(round)+0.5)*cfg.P)); err != nil {
					t.Fatal(err)
				}
			}
			for round < 5 {
				oneRound()
			}
			if got := testing.AllocsPerRun(100, oneRound); got != tc.want {
				t.Errorf("a TwoFaced round allocates %v times, want %v", got, tc.want)
			}
		})
	}
}

// hearer records the round marks it hears from each sender, with their
// delivery times.
type hearer struct{ heard []sim.Message }

func (h *hearer) Receive(_ *sim.Context, m sim.Message) {
	if m.Kind == sim.KindOrdinary {
		h.heard = append(h.heard, m)
	}
}

// TestTimedSendRingOverlap holds the timed sends' ring to its reuse rule: a
// TwoFaced whose late copies go out 2.5 rounds after their mark has three
// rounds of sends pending at once, so a slot reused before its sends fire
// would relay a later round's payload. Every copy must carry the mark of
// the round it was timed for, and every recipient must hear each round
// once.
func TestTimedSendRingOverlap(t *testing.T) {
	cfg := cfg7()
	lead, lag := 3*cfg.Eps, 2.5*cfg.P
	procs := make([]sim.Process, cfg.N)
	clocks := make([]clock.Clock, cfg.N)
	hearers := make([]*hearer, cfg.N-1)
	for i := range hearers {
		hearers[i] = &hearer{}
		procs[i] = hearers[i]
	}
	for i := range clocks {
		clocks[i] = clock.Linear(0, 1)
	}
	procs[6] = &faults.TwoFaced{Cfg: cfg, Lead: lead, Lag: lag}
	e, err := sim.New(sim.Config{
		Procs: procs, Clocks: clocks, StartAt: make([]clock.Real, cfg.N),
		Delay: sim.ConstantDelay{Delta: cfg.Delta},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 12
	if err := e.Run(clock.Real(cfg.T0 + rounds*cfg.P)); err != nil {
		t.Fatal(err)
	}
	for q, h := range hearers {
		offset := lag
		if q < cfg.N/2 {
			offset = -lead
		}
		seen := map[clock.Local]bool{}
		for _, m := range h.heard {
			mark := m.Payload.(core.TMsg).Mark
			if seen[mark] {
				t.Fatalf("recipient %d heard mark %v twice", q, mark)
			}
			seen[mark] = true
			if want := float64(mark) + offset + cfg.Delta; math.Abs(float64(m.DeliverAt)-want) > 1e-9 {
				t.Fatalf("recipient %d heard mark %v at %v, the copy timed for it lands at %v", q, mark, m.DeliverAt, want)
			}
		}
		if q >= cfg.N/2 && len(seen) < rounds-3 {
			t.Fatalf("recipient %d heard %d rounds of late copies, want at least %d", q, len(seen), rounds-3)
		}
	}
}

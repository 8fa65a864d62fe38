package baselines_test

import (
	"testing"

	"repro/internal/baselines/hssd"
	"repro/internal/baselines/st"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sim"
)

// stRoundSpammer is a Byzantine ST participant that floods announcements for
// far-future rounds, trying to drag nonfaulty clocks forward. The f+1 relay
// threshold and n−f acceptance threshold must neutralize it when there are
// at most f spammers.
type stRoundSpammer struct {
	ahead int
}

func (s *stRoundSpammer) Receive(ctx *sim.Context, m sim.Message) {
	if m.Kind != sim.KindStart && m.Kind != sim.KindTimer {
		return
	}
	for k := 1; k <= s.ahead; k++ {
		ctx.Broadcast(st.RoundMsg{K: k * 3})
	}
	ctx.SetTimer(ctx.PhysNow()+0.2, nil)
}

func TestSTResistsFutureRoundSpam(t *testing.T) {
	p := params()
	cfg := st.Config{Params: p}
	mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return st.New(cfg, corr) }
	mix := map[sim.ProcID]func() sim.Process{
		5: func() sim.Process { return &stRoundSpammer{ahead: 5} },
		6: func() sim.Process { return &stRoundSpammer{ahead: 5} },
	}
	res, err := exp.Run(exp.Workload{
		Cfg:      core.Config{Params: p},
		MakeProc: mk,
		Faults:   mix,
		Rounds:   15,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two spammers < f+1 = 3: no nonfaulty process may relay or accept the
	// bogus rounds; the clocks must stay on schedule and synchronized.
	bound := 2 * (cfg.Delta + cfg.Eps)
	if got := res.Skew.MaxAfterWarmup(); got > bound {
		t.Errorf("ST skew %v exceeds %v under future-round spam", got, bound)
	}
	for _, id := range res.NonfaultyIDs() {
		proc := res.Process(id).(*st.Proc)
		if proc.Round() > 20 {
			t.Errorf("process %d jumped to round %d — accepted spammed rounds", id, proc.Round())
		}
	}
}

// hssdForger broadcasts signed messages with forged (duplicate-signer)
// chains and absurdly early timing; validChain plus the earliness window
// must reject them.
type hssdForger struct{}

func (hssdForger) Receive(ctx *sim.Context, m sim.Message) {
	if m.Kind != sim.KindStart && m.Kind != sim.KindTimer {
		return
	}
	// Duplicate-signer chain (invalid signature), plausible round.
	ctx.Broadcast(hssd.SignedMsg{K: 1, Chain: []sim.ProcID{ctx.ID(), ctx.ID()}})
	// Valid-looking single-signer chain but for a round far in the future:
	// arrives hours early on every clock, outside the acceptance window.
	ctx.Broadcast(hssd.SignedMsg{K: 3000, Chain: []sim.ProcID{ctx.ID()}})
	ctx.SetTimer(ctx.PhysNow()+0.3, nil)
}

func TestHSSDRejectsForgedAndEarlyChains(t *testing.T) {
	p := params()
	cfg := hssd.Config{Params: p}
	mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return hssd.New(cfg, corr) }
	mix := map[sim.ProcID]func() sim.Process{
		5: func() sim.Process { return hssdForger{} },
		6: func() sim.Process { return hssdForger{} },
	}
	res, err := exp.Run(exp.Workload{
		Cfg:      core.Config{Params: p},
		MakeProc: mk,
		Faults:   mix,
		Rounds:   15,
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := 2 * (cfg.Delta + cfg.Eps)
	if got := res.Skew.MaxAfterWarmup(); got > bound {
		t.Errorf("HSSD skew %v exceeds %v under forged chains", got, bound)
	}
	for _, id := range res.NonfaultyIDs() {
		proc := res.Process(id).(*hssd.Proc)
		if proc.Round() > 20 {
			t.Errorf("process %d jumped to round %d — accepted a forged/early chain", id, proc.Round())
		}
	}
}

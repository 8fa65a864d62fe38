// Package baselines_test exercises all five §10 comparison algorithms on the
// common substrate, checking that each synchronizes in the fault-free case
// and tolerates its advertised fault mix.
package baselines_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/baselines/hssd"
	"repro/internal/baselines/lm"
	"repro/internal/baselines/marzullo"
	"repro/internal/baselines/ms"
	"repro/internal/baselines/st"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/sim"
)

func params() analysis.Params { return analysis.Default(7, 2) }

// run executes a workload with the given process factory and fault mix.
func run(t *testing.T, mk func(id sim.ProcID, corr clock.Local) sim.Process, mix map[sim.ProcID]func() sim.Process) *exp.Result {
	t.Helper()
	res, err := exp.Run(exp.Workload{
		Cfg:      core.Config{Params: params()},
		MakeProc: mk,
		Faults:   mix,
		Rounds:   15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func silent2() map[sim.ProcID]func() sim.Process {
	return map[sim.ProcID]func() sim.Process{
		5: func() sim.Process { return faults.Silent{} },
		6: func() sim.Process { return faults.Silent{} },
	}
}

func TestLMSynchronizes(t *testing.T) {
	cfg := lm.Config{Params: params()}
	mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return lm.New(cfg, corr) }
	res := run(t, mk, nil)
	// §10: closeness ≈ 2nε. Allow the full bound.
	bound := 2 * float64(cfg.N) * cfg.Eps
	if got := res.Skew.MaxAfterWarmup(); got > bound {
		t.Errorf("LM steady skew %v exceeds ≈2nε = %v", got, bound)
	}
	if p := res.Process(0).(*lm.Proc); p.Round() < 14 {
		t.Errorf("LM made only %d rounds", p.Round())
	}
}

func TestLMWithSilentFaults(t *testing.T) {
	cfg := lm.Config{Params: params()}
	mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return lm.New(cfg, corr) }
	res := run(t, mk, silent2())
	bound := 2 * float64(cfg.N) * cfg.Eps
	if got := res.Skew.MaxAfterWarmup(); got > bound {
		t.Errorf("LM steady skew %v exceeds %v with silent faults", got, bound)
	}
}

func TestMSSynchronizes(t *testing.T) {
	cfg := ms.Config{Params: params()}
	mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return ms.New(cfg, corr) }
	res := run(t, mk, silent2())
	bound := 2 * float64(cfg.N) * cfg.Eps
	if got := res.Skew.MaxAfterWarmup(); got > bound {
		t.Errorf("MS steady skew %v exceeds %v", got, bound)
	}
	if p := res.Process(0).(*ms.Proc); p.Round() < 14 {
		t.Errorf("MS made only %d rounds", p.Round())
	}
}

// TestMSGracefulDegradationBeyondThird is §10's "pleasing and novel" MS
// property: with n/3 < faulty ≤ n/2 silent processes, MS keeps the survivors
// loosely synchronized rather than collapsing.
func TestMSGracefulDegradationBeyondThird(t *testing.T) {
	cfg := ms.Config{Params: params()}
	mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return ms.New(cfg, corr) }
	mix := map[sim.ProcID]func() sim.Process{
		4: func() sim.Process { return faults.Silent{} },
		5: func() sim.Process { return faults.Silent{} },
		6: func() sim.Process { return faults.Silent{} }, // 3 > n/3 = 2.33
	}
	res := run(t, mk, mix)
	// Loose but bounded: an order of magnitude above the clean bound still
	// demonstrates the survivors didn't diverge.
	if got := res.Skew.MaxAfterWarmup(); got > 50e-3 {
		t.Errorf("MS survivors diverged: steady skew %v", got)
	}
}

func TestSTSynchronizes(t *testing.T) {
	cfg := st.Config{Params: params()}
	mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return st.New(cfg, corr) }
	res := run(t, mk, nil)
	// §10: agreement ≈ δ+ε; allow 2×.
	bound := 2 * (cfg.Delta + cfg.Eps)
	if got := res.Skew.MaxAfterWarmup(); got > bound {
		t.Errorf("ST steady skew %v exceeds 2(δ+ε) = %v", got, bound)
	}
	if p := res.Process(0).(*st.Proc); p.Round() < 13 {
		t.Errorf("ST made only %d rounds", p.Round())
	}
}

func TestSTWithSilentFaults(t *testing.T) {
	cfg := st.Config{Params: params()}
	mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return st.New(cfg, corr) }
	res := run(t, mk, silent2())
	bound := 2 * (cfg.Delta + cfg.Eps)
	if got := res.Skew.MaxAfterWarmup(); got > bound {
		t.Errorf("ST steady skew %v exceeds %v with silent faults", got, bound)
	}
}

func TestHSSDSynchronizes(t *testing.T) {
	cfg := hssd.Config{Params: params()}
	mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return hssd.New(cfg, corr) }
	res := run(t, mk, nil)
	bound := 2 * (cfg.Delta + cfg.Eps)
	if got := res.Skew.MaxAfterWarmup(); got > bound {
		t.Errorf("HSSD steady skew %v exceeds 2(δ+ε) = %v", got, bound)
	}
	if p := res.Process(0).(*hssd.Proc); p.Round() < 13 {
		t.Errorf("HSSD made only %d rounds", p.Round())
	}
}

// TestHSSDToleratesManyCrashes: with signatures, more than a third may fail
// (here: silent), as long as the rest keep exchanging messages.
func TestHSSDToleratesManyCrashes(t *testing.T) {
	cfg := hssd.Config{Params: params()}
	mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return hssd.New(cfg, corr) }
	mix := map[sim.ProcID]func() sim.Process{
		4: func() sim.Process { return faults.Silent{} },
		5: func() sim.Process { return faults.Silent{} },
		6: func() sim.Process { return faults.Silent{} },
	}
	res := run(t, mk, mix)
	bound := 2 * (cfg.Delta + cfg.Eps)
	if got := res.Skew.MaxAfterWarmup(); got > bound {
		t.Errorf("HSSD steady skew %v exceeds %v with 3/7 crashed", got, bound)
	}
}

func TestMarzulloSynchronizes(t *testing.T) {
	cfg := marzullo.Config{Params: params()}
	mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return marzullo.New(cfg, corr) }
	res := run(t, mk, silent2())
	bound := 2 * float64(cfg.N) * cfg.Eps
	if got := res.Skew.MaxAfterWarmup(); got > bound {
		t.Errorf("Marzullo steady skew %v exceeds %v", got, bound)
	}
	p := res.Process(0).(*marzullo.Proc)
	if p.Round() < 14 {
		t.Errorf("Marzullo made only %d rounds", p.Round())
	}
	// Peer-only operation: E grows by ≈ ε+2ρP per round (see package doc);
	// assert it stays within that documented linear envelope.
	rounds := float64(p.Round())
	envelope := cfg.Beta + rounds*(cfg.Eps+2*cfg.Rho*cfg.P)*1.5
	if p.ErrorBound() <= 0 || p.ErrorBound() > envelope {
		t.Errorf("error bound %v outside (0, %v] after %v rounds", p.ErrorBound(), envelope, rounds)
	}
}

// TestHSSDToleratesLinkFailures checks §10's extra HSSD property on the
// LossyLinks channel: with several dead links (but the nonfaulty processes
// still connected through relays), the signed-relay flooding keeps everyone
// synchronized. The relay is the mechanism: a process that cannot hear the
// originator accepts the value from any relayer's extended chain.
func TestHSSDToleratesLinkFailures(t *testing.T) {
	cfg := hssd.Config{Params: params()}
	mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return hssd.New(cfg, corr) }
	// Cut both directions of several links touching process 0: it can only
	// talk to processes 4, 5, 6 directly.
	ch := sim.NewLossyLinks().
		BreakBothWays(0, 1).
		BreakBothWays(0, 2).
		BreakBothWays(0, 3)
	res, err := exp.Run(exp.Workload{
		Cfg:      core.Config{Params: params()},
		MakeProc: mk,
		Channel:  ch,
		Rounds:   15,
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := 2 * (cfg.Delta + cfg.Eps)
	if got := res.Skew.MaxAfterWarmup(); got > bound {
		t.Errorf("HSSD steady skew %v exceeds %v with 3 dead links", got, bound)
	}
	if res.MessagesLost() == 0 {
		t.Error("no messages were dropped: link failures not exercised")
	}
}

// TestSTMessageComplexity checks the §10 claim that the echo protocol costs
// up to 2n² messages per round when clocks are spread: every process both
// announces and (potentially) relays.
func TestSTMessageComplexity(t *testing.T) {
	p := params()
	cfg := st.Config{Params: p}
	mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return st.New(cfg, corr) }
	rounds := 10
	res, err := exp.Run(exp.Workload{
		Cfg:      core.Config{Params: p},
		MakeProc: mk,
		Rounds:   rounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	perRound := float64(res.MessagesSent()) / float64(rounds)
	n2 := float64(p.N * p.N)
	if perRound < 0.5*n2 || perRound > 2.2*n2 {
		t.Errorf("ST messages/round = %v, want within [n², 2n²] ≈ [%v, %v]", perRound, n2, 2*n2)
	}
}

// TestLMThresholdMatters: an absurdly small Δ threshold makes CNV discard
// every honest estimate, so the clocks free-run and drift apart; the default
// threshold keeps them synchronized. This is [LM]'s documented sensitivity.
func TestLMThresholdMatters(t *testing.T) {
	p := params()
	run := func(threshold float64) float64 {
		cfg := lm.Config{Params: p, Threshold: threshold}
		mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return lm.New(cfg, corr) }
		res, err := exp.Run(exp.Workload{
			Cfg:      core.Config{Params: p},
			MakeProc: mk,
			Rounds:   20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Skew.MaxAfterWarmup()
	}
	healthy := run(0)       // defaulted threshold
	strangled := run(1e-12) // discards everything
	if healthy >= strangled {
		t.Errorf("threshold had no effect: healthy %v vs strangled %v", healthy, strangled)
	}
}

// TestMSToleranceFilter: with an absurdly small τ nothing reaches n−f
// support under jitter, so MS never adjusts; clocks free-run.
func TestMSToleranceFilter(t *testing.T) {
	p := params()
	cfg := ms.Config{Params: p, Tolerance: 1e-12}
	mk := func(_ sim.ProcID, corr clock.Local) sim.Process { return ms.New(cfg, corr) }
	res, err := exp.Run(exp.Workload{
		Cfg:      core.Config{Params: p},
		MakeProc: mk,
		Rounds:   15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rounds.MaxAbsAdj(0); got != 0 {
		t.Errorf("MS adjusted by %v despite the impossible tolerance", got)
	}
}

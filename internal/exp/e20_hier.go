package exp

import (
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp/runner"
	"repro/internal/faults"
	"repro/internal/hier"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "E20",
		Title:    "Two-tier hierarchical synchronization: traffic, bound, and sharpness",
		PaperRef: "§4 composed twice; Theorem 16 per tier; A2 per tier",
		Run:      runE20,
	})
}

// e20ScaleRounds matches e19Rounds so the flat and hierarchical per-round
// message counts divide the same number of maintenance rounds.
const e20ScaleRounds = e19Rounds

// e20FaultRounds gives elections (2.5·P of silence) and the sharpness
// divergence time to play out.
const e20FaultRounds = 10

func runE20() ([]*Table, error) {
	scale, err := e20ScaleTable()
	if err != nil {
		return nil, err
	}
	fl, err := e20FaultTable()
	if err != nil {
		return nil, err
	}
	return []*Table{scale, fl}, nil
}

// e20ClusterSize picks c ≈ √n, the traffic-optimal cluster size for
// n·c + (n/c)² message terms.
func e20ClusterSize(n int) int {
	c := int(math.Round(math.Sqrt(float64(n))))
	if c < 1 {
		c = 1
	}
	return c
}

// e20ScaleTable is the head-to-head against E19's flat baseline: same n,
// same number of rounds, flat mesh vs. two-tier hierarchy, with the
// hierarchy additionally swept across shard counts as a determinism oracle
// (whole-digest comparison, exactly like E19).
func e20ScaleTable() (*Table, error) {
	t := &Table{
		ID:       "E20",
		Title:    "Flat vs. two-tier hierarchy: per-round traffic and skew envelope",
		PaperRef: "§4 (n² messages per round) vs. n·c + (n/c)²",
		Columns:  []string{"n", "c", "topology", "shards", "msgs/round", "vs flat", "worst skew", "bound", "skew ≤ bound", "traffic ≤ 20%", "det"},
	}
	ns := []int{101, 251}
	if SweepTier() >= TierFull {
		ns = append(ns, 1009)
	}
	if SweepTier() >= TierStress {
		ns = append(ns, 16385)
	}
	type nRows struct{ rows [][]string }
	all, err := runner.Map(0, len(ns), func(i int) (nRows, error) {
		n := ns[i]
		c := e20ClusterSize(n)
		var out nRows

		// Flat baseline. Above the sequential-tier sizes the flat mesh is
		// not worth executing (E19's stress rows already pay that bill), so
		// the comparison denominator falls back to the analytic n² copies.
		flatPerRound := float64(n) * float64(n)
		if n <= 8192 {
			fr, err := e19Trial(n, 1)
			if err != nil {
				return out, fmt.Errorf("flat n=%d: %w", n, err)
			}
			flatPerRound = float64(fr.msgs) / float64(e20ScaleRounds)
			out.rows = append(out.rows, []string{
				fmtInt(n), "—", "flat", "1",
				fmtInt(int(flatPerRound)), "100%",
				FmtDur(fr.maxSkew), FmtDur(fr.gamma), Verdict(fr.maxSkew <= fr.gamma),
				"—", Verdict(true),
			})
		}

		counts := []int{1, 2, 8}
		if n > 8192 {
			counts = []int{8, 16}
		}
		var base *e20Run
		for _, k := range counts {
			r, err := e20Trial(n, c, k)
			if err != nil {
				return out, fmt.Errorf("hier n=%d c=%d shards=%d: %w", n, c, k, err)
			}
			det := true
			if base == nil {
				base = r
			} else {
				det = *r == *base
				if !det {
					return out, fmt.Errorf("E20 n=%d: shards=%d diverged from shards=%d: %+v vs %+v", n, k, counts[0], *r, *base)
				}
			}
			perRound := float64(r.msgs) / float64(e20ScaleRounds)
			ratio := perRound / flatPerRound
			if ratio > 0.20 {
				return out, fmt.Errorf("E20 n=%d: hierarchy sends %.1f%% of flat traffic, want ≤ 20%%", n, 100*ratio)
			}
			out.rows = append(out.rows, []string{
				fmtInt(n), fmtInt(c), "hier", fmtInt(k),
				fmtInt(int(perRound)), fmt.Sprintf("%.1f%%", 100*ratio),
				FmtDur(r.maxSkew), FmtDur(r.gamma), Verdict(r.maxSkew <= r.gamma),
				Verdict(ratio <= 0.20), Verdict(det),
			})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for _, nr := range all {
		for _, row := range nr.rows {
			t.AddRow(row...)
		}
	}
	t.AddNote("hier: clusters of c ≈ √n run the §4.2 algorithm on a fast (δ_in=2ms) substrate; representatives run it again across clusters (δ_out=30ms) and relay corrections")
	t.AddNote("bound is γ for flat rows and γ_composed = 2γ_in + γ_out + AdjBound_out for hier rows; worst skew after %d warmup rounds, sampled where a local time bends (exact on every engine)", e20ScaleRounds/2)
	t.AddNote("identical hier digests across shard counts pin clusters straddling shard boundaries (c ≈ √n never divides the shard width)")
	if SweepTier() >= TierStress {
		t.AddNote("n=16385 flat baseline is analytic (n² copies/round); E19's stress rows measure that mesh directly")
	}
	return t, nil
}

// e20Run is one hierarchy trial's deterministic digest; trials at different
// shard counts must produce identical values (compared as a whole struct).
type e20Run struct {
	windows int
	events  int
	msgs    int64
	maxSkew float64
	gamma   float64
}

// e20Trial runs the two-tier system at size n, cluster size c, across k
// shards.
func e20Trial(n, c, k int) (*e20Run, error) {
	s, err := hier.Build(hier.Default(n, c))
	if err != nil {
		return nil, err
	}
	res, err := Run(Workload{Hier: s, Rounds: e20ScaleRounds, Seed: runner.DeriveSeed(20, n), Shards: k})
	if err != nil {
		return nil, err
	}
	r := &e20Run{
		windows: res.Windows(),
		events:  res.Steps(),
		msgs:    res.MessagesSent(),
		maxSkew: res.Skew.MaxAfterWarmup(),
		gamma:   s.Cfg.GammaComposed(),
	}
	if math.IsNaN(r.maxSkew) {
		return nil, fmt.Errorf("skew is NaN")
	}
	return r, nil
}

// ---- fault tolerance, partition containment, and sharpness ----

// e20FaultTable exercises the composition's fault budget at n=80, c=8
// (m=10 clusters, f_in=2, f_out=3): Byzantine followers inside a cluster,
// Byzantine/crashed representatives forcing re-election, a cluster cut off
// by link failures, and a sharpness leg where Byzantine representatives
// exceed the outer tier's threshold and agreement must break.
func e20FaultTable() (*Table, error) {
	t := &Table{
		ID:       "E20b",
		Title:    "Two-tier fault budget: f_in per cluster, f_out across clusters, sharpness",
		PaperRef: "A2 per tier; Theorem 16 per tier; §5 sharpness",
		Columns:  []string{"leg", "byz", "checked skew", "global skew", "γ_composed", "checked ≤ γ", "global ≤ γ", "invariant", "expect"},
	}
	legs := e20Legs()
	runs, err := runner.Map(0, len(legs), func(i int) (*e20FaultRun, error) {
		r, err := e20FaultTrial(legs[i])
		if err != nil {
			return nil, fmt.Errorf("E20 leg %s: %w", legs[i].name, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, leg := range legs {
		r := runs[i]
		connOK := r.connSkew <= r.gamma
		globOK := r.globSkew <= r.gamma
		expect := "hold"
		match := connOK && globOK && r.inv
		switch {
		case leg.wantConn && !leg.wantGlob:
			expect = "contain"
			match = connOK && !globOK && r.inv
		case !leg.wantConn:
			expect = "break"
			match = !globOK && !r.inv
		}
		if !match {
			return nil, fmt.Errorf("E20 leg %s: expectation %s not met (checked %.3gs global %.3gs γ %.3gs invariant=%v)",
				leg.name, expect, r.connSkew, r.globSkew, r.gamma, r.inv)
		}
		t.AddRow(leg.name, leg.byz,
			FmtDur(r.connSkew), FmtDur(r.globSkew), FmtDur(r.gamma),
			Verdict(connOK), Verdict(globOK), Verdict(r.inv), expect)
	}
	t.AddNote("n=80, c=8: m=10 clusters, f_in=2 per cluster, f_out=3 representatives; %d rounds, skew after warmup", e20FaultRounds)
	t.AddNote("checked skew excludes the partitioned cluster in the partition leg (everywhere else it equals the global skew); the invariant column is the runtime hier-agreement checker's verdict over the same population")
	t.AddNote("contain: the cut-off cluster keeps its internal γ_in envelope (its representative's outer average skips on a cold ARR) while the connected majority holds γ_composed — the damage does not spread")
	t.AddNote("break: 4 two-faced representatives exceed f_out=3, steering two balanced groups of honest representatives apart — the composed bound is sharp at the outer tier's A2 threshold")
	return t, nil
}

// e20Leg describes one fault-table configuration.
type e20Leg struct {
	name string
	byz  string
	// faulty automata substituted into the built system, by id.
	faulty map[sim.ProcID]func(cfg hier.Config) sim.Process
	// excludeCluster marks a cluster left out of the checked population
	// (-1: none).
	excludeCluster int
	// offsetCluster shifts one cluster's initial frame by offset seconds
	// (violating the outer tier's A4 on purpose); -1: none.
	offsetCluster int
	offset        float64
	// partition cuts every link between excludeCluster and the rest.
	partition bool
	// wantConn/wantGlob state the expected verdicts for the checked and
	// global populations.
	wantConn, wantGlob bool
}

func e20Legs() []e20Leg {
	mkInnerTwoFaced := func(cluster int) func(cfg hier.Config) sim.Process {
		return func(cfg hier.Config) sim.Process {
			return &faults.TwoFaced{
				Cfg:  core.Config{Params: cfg.InnerParams(cluster)},
				Lead: 1.5e-3, Lag: 1.5e-3,
				EarlyTo:     func(to sim.ProcID) bool { return to%2 == 0 },
				MakePayload: func(mark clock.Local) any { return hier.TMsg{Tier: hier.TierInner, Mark: mark} },
			}
		}
	}
	silent := func(cfg hier.Config) sim.Process { return faults.Silent{} }
	outerTwoFaced := func(cfg hier.Config) sim.Process {
		return &faults.TwoFaced{
			Cfg:  core.Config{Params: cfg.OuterParams()},
			Lead: 8e-3, Lag: 8e-3,
			EarlyTo:     func(to sim.ProcID) bool { return cfg.ClusterOf(to)%2 == 0 },
			MakePayload: func(mark clock.Local) any { return hier.TMsg{Tier: hier.TierOuter, Mark: mark} },
		}
	}
	splitRep := func(cfg hier.Config) sim.Process {
		return &e20SplitRep{H: cfg, Lead: 12e-3, Lag: 12e-3, Ramp: 9e-3}
	}
	return []e20Leg{
		{
			name: "benign", byz: "0",
			excludeCluster: -1, offsetCluster: -1,
			wantConn: true, wantGlob: true,
		},
		{
			name: "byz members", byz: "2 two-faced followers (cluster 1)",
			faulty: map[sim.ProcID]func(hier.Config) sim.Process{
				9: mkInnerTwoFaced(1), 10: mkInnerTwoFaced(1),
			},
			excludeCluster: -1, offsetCluster: -1,
			wantConn: true, wantGlob: true,
		},
		{
			name: "byz reps f=f_out", byz: "2 crashed + 1 two-faced representative",
			faulty: map[sim.ProcID]func(hier.Config) sim.Process{
				8: silent, 16: silent, 24: outerTwoFaced,
			},
			excludeCluster: -1, offsetCluster: -1,
			wantConn: true, wantGlob: true,
		},
		{
			name: "partition", byz: "0 (cluster 0 cut off, frame +60ms)",
			excludeCluster: 0, offsetCluster: 0, offset: 60e-3, partition: true,
			wantConn: true, wantGlob: false,
		},
		{
			name: "sharpness f>f_out", byz: "4 split representatives",
			faulty: map[sim.ProcID]func(hier.Config) sim.Process{
				0: splitRep, 16: splitRep, 32: splitRep, 48: splitRep,
			},
			excludeCluster: -1, offsetCluster: -1,
			wantConn: false, wantGlob: false,
		},
	}
}

// e20FaultRun is one leg's deterministic digest.
type e20FaultRun struct {
	connSkew float64
	globSkew float64
	gamma    float64
	inv      bool
}

func e20FaultTrial(leg e20Leg) (*e20FaultRun, error) {
	const n, c = 80, 8
	hcfg := hier.Default(n, c)
	s, err := hier.Build(hcfg)
	if err != nil {
		return nil, err
	}
	if j := leg.offsetCluster; j >= 0 {
		s.ShiftCluster(j, clock.Local(leg.offset))
	}
	w := Workload{Hier: s, Rounds: e20FaultRounds, Seed: runner.DeriveSeed(20, 80)}
	if len(leg.faulty) > 0 {
		w.Faults = make(map[sim.ProcID]func() sim.Process, len(leg.faulty))
		for id, mk := range leg.faulty {
			w.Faults[id] = func() sim.Process { return mk(hcfg) }
		}
	}
	if leg.partition {
		dead := make(map[sim.Link]bool)
		lo, hi := hcfg.ClusterBounds(leg.excludeCluster)
		for a := lo; a < hi; a++ {
			for b := sim.ProcID(0); b < sim.ProcID(n); b++ {
				if b >= lo && b < hi {
					continue
				}
				dead[sim.Link{From: a, To: b}] = true
				dead[sim.Link{From: b, To: a}] = true
			}
		}
		w.Channel = sim.LossyLinks{Dead: dead}
	}
	a, err := w.assemble()
	if err != nil {
		return nil, err
	}
	if leg.excludeCluster >= 0 {
		// The checked population leaves the cut-off cluster out; the skew
		// recorder keeps measuring everyone.
		a.res.HierAgreement.Exclude = make([]bool, hcfg.Clusters())
		a.res.HierAgreement.Exclude[leg.excludeCluster] = true
	}
	res, err := execute(a)
	if err != nil {
		return nil, err
	}
	chk := res.HierAgreement
	if chk.Checked() == 0 {
		return nil, fmt.Errorf("hier-agreement checker never fired")
	}
	return &e20FaultRun{
		connSkew: chk.MaxSpread(),
		globSkew: res.Skew.MaxAfterWarmup(),
		gamma:    hcfg.GammaComposed(),
		inv:      chk.Ok(),
	}, nil
}

// e20SendAt schedules one adversarial copy.
type e20SendAt struct {
	to      sim.ProcID
	payload any
}

type e20NextRound struct{}

// e20SplitRep is the sharpness adversary: a Byzantine representative that
// (a) keeps its own honest followers captive with zero-adjustment
// discipline heartbeats (suppressing the election that would restore an
// honest representative), and (b) plays the outer tier two-faced, sending
// its round mark early to the low-indexed clusters and late to the
// high-indexed ones, splitting the honest representatives into two equal
// groups (byz at 0/2/4/6 leaves {1,3,5} early and {7,8,9} late — a
// balanced split matters: against a lopsided split the honest majority's
// arrivals dominate the midpoint and drag the minority back). With more
// such representatives than f_out, reduce_f cannot cut them all and a
// surviving extreme arrival biases every midpoint.
//
// A static early offset saturates: once the fast group has gained ≈Lead,
// the adversary's arrivals coincide with the honest band and stop pulling.
// So the early side *ramps* by Ramp per round — the adversary keeps
// planting its arrival at the leading edge of the fast group's receding
// window, exactly the §5 sharpness adversary's move — while the static
// late side pins the slow group in place. The gap then grows without bound
// and crosses γ_composed within a few outer rounds.
type e20SplitRep struct {
	H         hier.Config
	Lead, Lag float64
	Ramp      float64
	round     int
}

var _ sim.Process = (*e20SplitRep)(nil)

// Receive implements sim.Process.
func (r *e20SplitRep) Receive(ctx *sim.Context, m sim.Message) {
	switch m.Kind {
	case sim.KindStart:
		r.schedule(ctx)
	case sim.KindTimer:
		switch p := m.Payload.(type) {
		case e20SendAt:
			ctx.Send(p.to, p.payload)
		case e20NextRound:
			r.schedule(ctx)
		}
	}
}

func (r *e20SplitRep) schedule(ctx *sim.Context) {
	h := r.H
	my := h.ClusterOf(ctx.ID())
	outer := h.OuterParams()
	mark := outer.T0 + float64(float64(r.round)*outer.P)
	for j := 0; j < h.Clusters(); j++ {
		if j == my {
			continue
		}
		at := mark + r.Lag
		if j <= 5 {
			at = mark - r.Lead - float64(r.Ramp*float64(r.round))
		}
		lo, hi := h.ClusterBounds(j)
		cands := h.Candidates
		if size := int(hi - lo); cands > size {
			cands = size
		}
		for q := 0; q < cands; q++ {
			ctx.SetTimer(clock.Local(at), e20SendAt{
				to:      lo + sim.ProcID(q),
				payload: hier.TMsg{Tier: hier.TierOuter, Mark: clock.Local(mark)},
			})
		}
	}
	lo, hi := h.ClusterBounds(my)
	heartbeat := mark + outer.Window()
	for q := lo; q < hi; q++ {
		if q != ctx.ID() {
			ctx.SetTimer(clock.Local(heartbeat), e20SendAt{
				to:      q,
				payload: hier.Discipline{Adj: 0, Round: int32(r.round)},
			})
		}
	}
	r.round++
	ctx.SetTimer(clock.Local(outer.T0+float64(float64(r.round)*outer.P)-r.Lead-float64(r.Ramp*float64(r.round))-1e-9), e20NextRound{})
}

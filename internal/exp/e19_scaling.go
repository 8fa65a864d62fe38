package exp

import (
	"fmt"
	"math"
	"runtime/debug"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exp/runner"
)

func init() {
	register(Experiment{
		ID:       "E19",
		Title:    "Large-n scaling on the sharded time-window engine",
		PaperRef: "§4 (n² messages per round); A3 (δ−ε lookahead)",
		Run:      runE19,
	})
}

// e19Rounds keeps E19 runs short: the experiment measures scaling shape and
// shard-count determinism, not long-horizon convergence (E09 owns that).
const e19Rounds = 4

// e19ShardCounts is the partition sweep every system size runs under. The
// k = 1/2/8 agreement of every measured column — pinned by the golden table
// and re-checked in-experiment — is the determinism oracle for the sharded
// engine: a window-synchronization or sequencing bug shows up as a det=FAIL
// row, not as a silent perturbation.
var e19ShardCounts = []int{1, 2, 8}

// runE19 grows the conformance story to "n in the thousands": the paper's
// algorithm on the real engine at n = 101 … 4001, partitioned across
// shards with conservative time-window synchronization at lookahead δ−ε
// (sim.Config.Shards). Every row reports deterministic quantities — windows
// run, events delivered, copies sent, worst post-warmup skew — so the table
// doubles as a byte-exact oracle that executions are
// independent of the shard count. The flat all-to-all message growth
// (msgs ∝ n² per round) recorded here is the measured baseline any future
// hierarchical variant has to beat.
func runE19() ([]*Table, error) {
	t := &Table{
		ID:       "E19",
		Title:    "Sharded time-window engine: flat all-to-all scaling baseline",
		PaperRef: "§4; A3",
		Columns:  []string{"n", "shards", "windows", "events", "msgs", "worst skew", "γ bound", "skew ≤ γ", "det"},
	}
	ns := []int{101, 251}
	if SweepTier() >= TierFull {
		ns = append(ns, 1009)
	}
	if SweepTier() >= TierStress {
		ns = append(ns, 4001, 16385)
	}
	for _, n := range ns {
		counts := e19ShardCounts
		if n > 8192 {
			// The nightly billion-event row, possible since the packed
			// sequence key's bit split became dynamic (cap 131072): k = 1 at
			// this size adds ~¼ hour of runtime without a parallelism story,
			// so the determinism oracle compares k = 16 against k = 8.
			counts = []int{8, 16}
		}
		var base *e19Run
		for _, k := range counts {
			if SweepTier() >= TierStress {
				// The last trial's engine is garbage, but the heap goal its
				// live ARR set (≈ 2 × 2.2 GB at n = 16,385) would keep it
				// resident while this trial allocates. FreeOSMemory collects
				// it and hands the pages back first.
				debug.FreeOSMemory()
			}
			r, err := e19Trial(n, k)
			if err != nil {
				return nil, fmt.Errorf("E19 n=%d shards=%d: %w", n, k, err)
			}
			det := true
			if base == nil {
				base = r
			} else {
				det = *r == *base
				if !det {
					return nil, fmt.Errorf("E19 n=%d: shards=%d diverged from shards=1: %+v vs %+v", n, k, *r, *base)
				}
			}
			gamma := r.gamma
			t.AddRow(fmtInt(n), fmtInt(k), fmtInt(r.windows), fmtInt(r.events),
				fmtInt(int(r.msgs)), FmtDur(r.maxSkew), FmtDur(gamma),
				Verdict(r.maxSkew <= gamma), Verdict(det))
		}
	}
	t.AddNote("lookahead L = δ−ε; every shard drains one [t, t+L) window in parallel, cross-shard copies exchange at the barrier")
	t.AddNote("worst skew after %d warmup rounds, sampled where a local time bends — replayed at each cut, so exact and equal to the time-major run's", e19Rounds/2)
	t.AddNote("msgs grows ∝ n² per round — the flat baseline a hierarchical topology would need to beat")
	obs, err := e19ObserverTable()
	if err != nil {
		return nil, err
	}
	return []*Table{t, obs}, nil
}

// e19ObserverTable runs the same workload through the experiment harness
// (Workload.Shards) with the standard recorders and the full invariant
// suite registered via Engine.Observe on the windowed engine — the observer
// path that made sharded runs measurable: samplers and annotation sinks are
// replayed at every window cut at the time-major engine's instants and in
// its order, so the recorded skew, the Theorem 16/19/4(a) verdicts, and the
// tables built from them are shard-count independent. Rows start at k = 2; the table above has k = 1.
func e19ObserverTable() (*Table, error) {
	t := &Table{
		ID:       "E19",
		Title:    "Sharded observers: recorders and invariant suite at window cuts",
		PaperRef: "§4; A3; Theorems 16/19/4(a)",
		Columns:  []string{"n", "shards", "windows", "events", "max skew", "γ bound", "skew ≤ γ", "invariants", "det"},
	}
	ns := []int{101, 251}
	if SweepTier() >= TierFull {
		ns = append(ns, 1009)
	}
	for _, n := range ns {
		var base *e19ObsRun
		for _, k := range []int{2, 4, 8} {
			r, err := e19ObsTrial(n, k)
			if err != nil {
				return nil, fmt.Errorf("E19 observers n=%d shards=%d: %w", n, k, err)
			}
			det := true
			if base == nil {
				base = r
			} else {
				det = *r == *base
				if !det {
					return nil, fmt.Errorf("E19 observers n=%d: shards=%d diverged from shards=2: %+v vs %+v", n, k, *r, *base)
				}
			}
			t.AddRow(fmtInt(n), fmtInt(k), fmtInt(r.windows), fmtInt(r.events),
				FmtDur(r.maxSkew), FmtDur(r.gamma),
				Verdict(r.maxSkew <= r.gamma), Verdict(r.invariants), Verdict(det))
		}
	}
	t.AddNote("recorders (skew, rounds, validity) and the invariant suite attach through Engine.Observe and are replayed at each window cut at the time-major sample points; per-delivery observers are not yet implemented there")
	t.AddNote("identical rows across shard counts pin the merged observer dispatch order, not just the execution")
	return t, nil
}

// e19ObsRun is one observer trial's deterministic digest.
type e19ObsRun struct {
	windows    int
	events     int
	msgs       int64
	maxSkew    float64
	gamma      float64
	invariants bool
}

// e19ObsTrial runs the paper's algorithm at size n across k shards through
// the experiment harness with all standard observers on.
func e19ObsTrial(n, k int) (*e19ObsRun, error) {
	cfg := core.Config{Params: analysis.Default(n, 0)}
	res, err := Run(Workload{
		Cfg:             cfg,
		Rounds:          e19Rounds,
		Seed:            runner.DeriveSeed(19, n),
		Shards:          k,
		CheckInvariants: true,
	})
	if err != nil {
		return nil, err
	}
	r := &e19ObsRun{
		windows:    res.Windows(),
		events:     res.Steps(),
		msgs:       res.MessagesSent(),
		maxSkew:    res.Skew.Max(),
		gamma:      cfg.Gamma(),
		invariants: res.Invariants.Ok(),
	}
	if math.IsNaN(r.maxSkew) {
		return nil, fmt.Errorf("skew is NaN")
	}
	return r, nil
}

// e19Run is one trial's deterministic digest; runs at different shard
// counts must produce identical values (compared as a whole struct).
type e19Run struct {
	windows int
	events  int
	msgs    int64
	maxSkew float64
	gamma   float64
}

// e19Trial runs the paper's algorithm at system size n across k shards
// (k = 1 included: one shard is still the windowed execution).
func e19Trial(n, k int) (*e19Run, error) {
	cfg := core.Config{Params: analysis.Default(n, 0)}
	res, err := Run(Workload{Cfg: cfg, Rounds: e19Rounds, Seed: runner.DeriveSeed(19, n), Shards: k})
	if err != nil {
		return nil, err
	}
	r := &e19Run{
		windows: res.Windows(),
		events:  res.Steps(),
		msgs:    res.MessagesSent(),
		maxSkew: res.Skew.MaxAfterWarmup(),
		gamma:   cfg.Gamma(),
	}
	if math.IsNaN(r.maxSkew) {
		return nil, fmt.Errorf("skew is NaN")
	}
	return r, nil
}

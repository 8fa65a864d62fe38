package clocksync_test

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	clocksync "repro"
)

// TestNewValidation: New accepts a configuration it can run — each accepted
// row runs three rounds — and rejects every other with a named error (want,
// when set, is a substring the error must contain).
func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		n, f    int
		opts    []clocksync.Option
		wantErr bool
		want    string
	}{
		{"default 7/2", 7, 2, nil, false, ""},
		{"minimum 4/1", 4, 1, nil, false, ""},
		{"fault-free singleton", 1, 0, nil, false, ""},
		{"n too small", 6, 2, nil, true, ""},
		{"too many faults configured", 7, 2, []clocksync.Option{
			clocksync.WithFault(4, clocksync.FaultSilent),
			clocksync.WithFault(5, clocksync.FaultSilent),
			clocksync.WithFault(6, clocksync.FaultSilent),
		}, true, ""},
		{"fault id out of range", 7, 2, []clocksync.Option{
			clocksync.WithFault(7, clocksync.FaultSilent),
		}, true, ""},
		{"unknown fault kind", 7, 2, []clocksync.Option{
			clocksync.WithFault(6, clocksync.FaultKind(9)),
		}, true, ""},
		{"zero fault kind", 7, 2, []clocksync.Option{clocksync.WithFault(6, 0)}, true, ""},
		{"unknown averaging", 7, 2, []clocksync.Option{clocksync.WithAveraging(clocksync.Averaging(7))}, true, ""},
		{"bad round length", 7, 2, []clocksync.Option{clocksync.WithRoundLength(1e-4)}, true, ""},
		{"adversary strategy ok", 7, 2, []clocksync.Option{
			clocksync.WithAdversary("skewmax"),
		}, false, ""},
		{"unknown adversary strategy", 7, 2, []clocksync.Option{
			clocksync.WithAdversary("nope"),
		}, true, ""},
		{"adversary + faults conflict", 7, 2, []clocksync.Option{
			clocksync.WithAdversary("two-faced"),
			clocksync.WithFault(6, clocksync.FaultSilent),
		}, true, ""},
		{"adversary + rejoiner conflict", 7, 2, []clocksync.Option{
			clocksync.WithAdversary("two-faced"),
			clocksync.WithRejoiner(6, 30, 0.5),
		}, true, ""},
		{"rejoiner id out of range", 7, 2, []clocksync.Option{
			clocksync.WithRejoiner(9, 5.4, 1),
		}, true, "WithRejoiner places process 9 outside [0,7)"},
		{"rejoiner id negative", 7, 2, []clocksync.Option{
			clocksync.WithRejoiner(-1, 5.4, 1),
		}, true, "WithRejoiner places process -1 outside [0,7)"},
		{"rejoiner past f", 7, 2, []clocksync.Option{
			clocksync.WithRejoiner(6, 5.4, 1),
			clocksync.WithFault(4, clocksync.FaultSilent),
			clocksync.WithFault(5, clocksync.FaultSilent),
		}, true, "3 processes placed faulty but f = 2"},
		{"rejoiner and fault on one id", 7, 2, []clocksync.Option{
			clocksync.WithRejoiner(6, 5.4, 1),
			clocksync.WithFault(6, clocksync.FaultTwoFaced),
		}, true, "WithRejoiner places process 6, which WithFault already placed"},
		{"retimer + fault on disjoint ids", 7, 2, []clocksync.Option{
			clocksync.WithAdversary("skewmax"),
			clocksync.WithFault(6, clocksync.FaultSilent),
		}, false, ""},
		{"k=2 ok", 7, 2, []clocksync.Option{clocksync.WithKExchanges(2)}, false, ""},
		{"k=2 stagger tail past the next exchange", 7, 2, []clocksync.Option{
			clocksync.WithKExchanges(2),
			clocksync.WithStagger(1.0 / 56),
		}, true, "K=2 exchanges need sub-period"},
		{"custom regime ok", 7, 2, []clocksync.Option{
			clocksync.WithRho(1e-6),
			clocksync.WithDelay(1e-3, 0.1e-3),
			clocksync.WithBeta(0.6e-3),
			clocksync.WithRoundLength(0.5),
		}, false, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := clocksync.New(tt.n, tt.f, tt.opts...)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New() error = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil {
				if !strings.Contains(err.Error(), tt.want) {
					t.Errorf("New() error %q does not name %q", err, tt.want)
				}
				return
			}
			if _, err := c.Run(3); err != nil {
				t.Errorf("accepted configuration does not run: %v", err)
			}
		})
	}
}

func TestRunFaultFree(t *testing.T) {
	c, err := clocksync.New(7, 2, clocksync.WithSkewSeries(1.0))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AgreementHolds() || !rep.AdjustmentBoundHolds() || !rep.ValidityHolds() {
		t.Errorf("paper bounds violated:\n%s", rep)
	}
	if rep.Rounds < 12 {
		t.Errorf("completed %d rounds, want ≥ 12", rep.Rounds)
	}
	if len(rep.SkewSeries) == 0 {
		t.Error("skew series missing despite WithSkewSeries")
	}
	if rep.MessagesSent == 0 {
		t.Error("no messages counted")
	}
	s := rep.String()
	for _, want := range []string{"agreement", "adjustment", "validity", "holds"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}

func TestRunRejectsBadRounds(t *testing.T) {
	c, err := clocksync.New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(0); err == nil {
		t.Error("Run(0) should error")
	}
}

// TestRunWithEveryFaultKind is the facade's fault oracle: each FaultKind on
// processes 5 and 6 keeps agreement and reproduces its pinned run bit for
// bit, so each kind stays its registry strategy at its pull (two-faced and
// stale-replay at 3ε, not the registry's β − ε).
func TestRunWithEveryFaultKind(t *testing.T) {
	for _, tc := range []struct {
		kind               clocksync.FaultKind
		msgs               int64
		steadySkew, maxAdj uint64 // math.Float64bits
	}{
		{clocksync.FaultSilent, 595, 0x3f544df850ec4000, 0x3f65f4d698f77c24},
		{clocksync.FaultTwoFaced, 819, 0x3f606dee64747000, 0x3f65f4d698f77c24},
		{clocksync.FaultNoise, 1298, 0x3f52369938616000, 0x3f5964562407e000},
		{clocksync.FaultStaleReplay, 833, 0x3f4f882782188000, 0x3f64e900ed7d76cc},
		{clocksync.FaultCrashMidRun, 665, 0x3f544e2f729cc000, 0x3f64e900ed7d76cc},
	} {
		c, err := clocksync.New(7, 2,
			clocksync.WithFault(5, tc.kind),
			clocksync.WithFault(6, tc.kind))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(15)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AgreementHolds() {
			t.Errorf("fault kind %d: skew %v exceeds γ %v", tc.kind, rep.MaxSkew, rep.Gamma)
		}
		if rep.MessagesSent != tc.msgs || math.Float64bits(rep.SteadySkew) != tc.steadySkew || math.Float64bits(rep.MaxAdjustment) != tc.maxAdj {
			t.Errorf("fault kind %d: %d msgs / steady skew %#x / max |ADJ| %#x, want %d / %#x / %#x", tc.kind,
				rep.MessagesSent, math.Float64bits(rep.SteadySkew), math.Float64bits(rep.MaxAdjustment),
				tc.msgs, tc.steadySkew, tc.maxAdj)
		}
	}
}

func TestRunWithRejoiner(t *testing.T) {
	c, err := clocksync.New(7, 2, clocksync.WithRejoiner(6, 5.4, 99.9))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(15)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rejoined {
		t.Error("rejoiner did not complete reintegration")
	}
	if !rep.AgreementHolds() {
		t.Errorf("agreement violated with rejoiner:\n%s", rep)
	}
}

// TestRunConcurrent runs one configured WithRejoiner Cluster from two
// goroutines (under -race in CI): Run keeps everything per-call, the rejoiner
// included, so the reports are equal and each saw its own rejoiner join.
func TestRunConcurrent(t *testing.T) {
	c, err := clocksync.New(7, 2, clocksync.WithRejoiner(6, 5.4, 99.9))
	if err != nil {
		t.Fatal(err)
	}
	var reps [2]*clocksync.Report
	var errs [2]error
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = c.Run(15)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if !reps[0].Rejoined || !reflect.DeepEqual(reps[0], reps[1]) {
		t.Errorf("concurrent runs of one Cluster differ or did not rejoin:\n%+v\n%+v", reps[0], reps[1])
	}
}

func TestRunVariants(t *testing.T) {
	tests := []struct {
		name string
		opts []clocksync.Option
	}{
		{"mean averaging", []clocksync.Option{clocksync.WithAveraging(clocksync.Mean)}},
		{"k exchanges", []clocksync.Option{clocksync.WithKExchanges(2)}},
		{"stagger", []clocksync.Option{clocksync.WithStagger(1e-3)}},
		{"adversarial delays", []clocksync.Option{clocksync.WithDelayDistribution(clocksync.DelayAdversarial)}},
		{"constant delays", []clocksync.Option{clocksync.WithDelayDistribution(clocksync.DelayConstant)}},
		{"random drift", []clocksync.Option{clocksync.WithRandomDrift()}},
		{"seeded", []clocksync.Option{clocksync.WithSeed(99)}},
		{"t0 shifted", []clocksync.Option{clocksync.WithT0(100)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := clocksync.New(7, 2, tt.opts...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.Run(10)
			if err != nil {
				t.Fatal(err)
			}
			// Stagger loosens agreement by a drift-order term only; use a
			// small allowance above γ for it.
			if rep.MaxSkew > rep.Gamma*1.1 {
				t.Errorf("skew %v well above γ %v:\n%s", rep.MaxSkew, rep.Gamma, rep)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *clocksync.Report {
		c, err := clocksync.New(7, 2, clocksync.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(8)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.MaxSkew != b.MaxSkew || a.MaxAdjustment != b.MaxAdjustment {
		t.Error("same seed produced different runs")
	}
}

func TestRunStartup(t *testing.T) {
	rep, err := clocksync.RunStartup(7, 2, 3.0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BSeries) < 10 {
		t.Fatalf("only %d startup rounds", len(rep.BSeries))
	}
	if !rep.Converged(2.0) {
		t.Errorf("startup did not converge: final %v vs floor %v", rep.FinalSkew, rep.Floor)
	}
	if rep.BSeries[0] < 0.5 {
		t.Errorf("initial closeness %v suspiciously small for 3s spread", rep.BSeries[0])
	}
	if !strings.Contains(rep.String(), "final skew") {
		t.Error("startup report rendering incomplete")
	}
}

func TestRunStartupValidation(t *testing.T) {
	if _, err := clocksync.RunStartup(3, 1, 1.0, 5); err == nil {
		t.Error("n=3,f=1 should be rejected")
	}
}

func TestParamsExposed(t *testing.T) {
	c, err := clocksync.New(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Params()
	if p.N != 7 || p.F != 2 {
		t.Errorf("Params = %+v", p)
	}
	if p.Gamma() <= 0 {
		t.Error("Gamma not positive")
	}
}

func TestRunEstablishThenMaintain(t *testing.T) {
	rep, err := clocksync.RunEstablishThenMaintain(7, 2, 2.0, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds < 5 {
		t.Errorf("maintenance reached only round %d", rep.Rounds)
	}
	if rep.SteadySkew > rep.Gamma {
		t.Errorf("steady maintenance skew %v exceeds γ %v", rep.SteadySkew, rep.Gamma)
	}
	if rep.MaxAdjustment > rep.AdjBound {
		t.Errorf("steady |ADJ| %v exceeds bound %v", rep.MaxAdjustment, rep.AdjBound)
	}
}

func TestRunEstablishThenMaintainValidation(t *testing.T) {
	if _, err := clocksync.RunEstablishThenMaintain(3, 1, 1.0, 4, 5); err == nil {
		t.Error("n=3,f=1 accepted")
	}
}

func TestWithDerivedBeta(t *testing.T) {
	c, err := clocksync.New(7, 2,
		clocksync.WithRho(2e-4),
		clocksync.WithRoundLength(5),
		clocksync.WithDerivedBeta())
	if err != nil {
		t.Fatal(err)
	}
	p := c.Params()
	// Derived β for ρ=2e−4, P=5s must be ≈ 4ε+4ρP ≈ 8ms, not the 5.5ms
	// default (which would be infeasible here).
	if p.Beta < 8e-3 {
		t.Errorf("derived β = %v, want ≥ 8ms", p.Beta)
	}
	if _, err := c.Run(6); err != nil {
		t.Fatal(err)
	}
}

func TestWithTrace(t *testing.T) {
	c, err := clocksync.New(4, 1, clocksync.WithTrace(50))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == "" {
		t.Fatal("trace missing")
	}
	for _, want := range []string{"START", "ORDINARY", "round_begin"} {
		if !strings.Contains(rep.Trace, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

// TestWithTraceTimedSends pins how a trace prints a timed-send strategy's
// timers: recipient and payload, as the value {to, payload} prints under
// %+v, with nothing of the ring the strategy arms them from.
func TestWithTraceTimedSends(t *testing.T) {
	c, err := clocksync.New(7, 2,
		clocksync.WithFault(5, clocksync.FaultNoise),
		clocksync.WithFault(6, clocksync.FaultTwoFaced),
		clocksync.WithTrace(2000))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"t=0.004557s  p5       TIMER     {to:3 payload:{Mark:-0.0018168196119657644}} (phys 0.004557)\n",
		"t=0.996990s  p6       TIMER     {to:0 payload:{Mark:1}} (phys 0.997000)\n",
	} {
		if !strings.Contains(rep.Trace, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	if strings.Contains(rep.Trace, "slot:") || strings.Contains(rep.Trace, "&{") {
		t.Error("trace prints a timed send's ring slot or pointer")
	}
}

// TestTwoTierRun drives the two-tier hierarchy through the facade,
// sequential and sharded, and checks the composed report. A report is one
// for every engine: the whole Report — skew maxima to the last bit, rounds,
// messages, verdicts — must be equal time-major (pinned by WithTrace, whose
// log is then dropped) and at WithShards 1 (one window partition), 2, 4 and
// 8, on the two-tier topology, on the flat n = 101 mesh, and on that mesh
// with four faulty processes whose unicasts a windowed engine keeps as
// one-copy rows.
func TestTwoTierRun(t *testing.T) {
	run := func(n, f, rounds, shards int, opts ...clocksync.Option) *clocksync.Report {
		t.Helper()
		c, err := clocksync.New(n, f, append(opts, clocksync.WithShards(shards))...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(rounds)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// The reference legs run time-major: WithTrace's per-delivery log keeps
	// them off the window and changes nothing in the execution.
	timeMajor := func(n, f, rounds int, opts ...clocksync.Option) *clocksync.Report {
		t.Helper()
		rep := run(n, f, rounds, 1, append(opts, clocksync.WithTrace(1))...)
		if rep.Trace == "" {
			t.Fatal("WithTrace recorded no delivery")
		}
		rep.Trace = ""
		return rep
	}
	seq := timeMajor(60, 0, 6, clocksync.WithClusters(6))
	if !seq.TwoTier || seq.Clusters != 10 || seq.ClusterSize != 6 {
		t.Fatalf("topology fields wrong: %+v", seq)
	}
	if !seq.AgreementHolds() {
		t.Errorf("composed agreement violated: steady %v vs γ_composed %v", seq.SteadySkew, seq.Gamma)
	}
	if !seq.InnerAgreementOK {
		t.Error("hier-agreement invariant violated in a benign run")
	}
	if seq.Rounds < 6 {
		t.Errorf("completed %d rounds, want ≥ 6", seq.Rounds)
	}
	s := seq.String()
	for _, want := range []string{"two-tier", "γ_composed", "hier-agreement"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
	flat := timeMajor(101, 33, 10)
	// The faulty leg: two-faced, noise and stale-replay processes unicast,
	// so a partition's Sends — one row each — carry part of the traffic.
	faulty := []clocksync.Option{
		clocksync.WithFault(97, clocksync.FaultTwoFaced),
		clocksync.WithFault(98, clocksync.FaultNoise),
		clocksync.WithFault(99, clocksync.FaultStaleReplay),
		clocksync.WithFault(100, clocksync.FaultCrashMidRun),
	}
	faultySeq := timeMajor(101, 33, 10, faulty...)
	for _, k := range []int{1, 2, 4, 8} {
		if sh := run(60, 0, 6, k, clocksync.WithClusters(6)); !reflect.DeepEqual(sh, seq) {
			t.Errorf("two-tier report at %d shards differs from the time-major one:\n%+v\n%+v", k, sh, seq)
		}
		if sh := run(101, 33, 10, k); !reflect.DeepEqual(sh, flat) {
			t.Errorf("flat n=101 report at %d shards differs from the time-major one:\n%+v\n%+v", k, sh, flat)
		}
		if sh := run(101, 33, 10, k, faulty...); !reflect.DeepEqual(sh, faultySeq) {
			t.Errorf("faulty flat n=101 report at %d shards differs from the time-major one:\n%+v\n%+v", k, sh, faultySeq)
		}
	}
}

// TestTwoTierComposition: what the shared run path attaches for the flat
// mesh, a two-tier run gets too — the skew series and the action log — and
// neither changes the execution; the combination the sharded engine cannot
// run is refused from the option table.
func TestTwoTierComposition(t *testing.T) {
	run := func(opts ...clocksync.Option) *clocksync.Report {
		t.Helper()
		c, err := clocksync.New(60, 0, append(opts, clocksync.WithClusters(6))...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(6)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run()
	if len(plain.SkewSeries) != 0 || plain.Trace != "" {
		t.Fatalf("series or trace without the option: %d buckets, %d trace bytes", len(plain.SkewSeries), len(plain.Trace))
	}

	series := run(clocksync.WithSkewSeries(0.5))
	if len(series.SkewSeries) == 0 || slices.Max(series.SkewSeries) != series.MaxSkew {
		t.Errorf("skew series %v: want non-empty with maximum MaxSkew = %v", series.SkewSeries, series.MaxSkew)
	}
	if series.MaxSkew != plain.MaxSkew || series.MessagesSent != plain.MessagesSent {
		t.Errorf("WithSkewSeries changed the run: skew %v vs %v, %d vs %d messages",
			series.MaxSkew, plain.MaxSkew, series.MessagesSent, plain.MessagesSent)
	}

	traced := run(clocksync.WithTrace(5000))
	for _, want := range []string{"Tier:1", "Tier:2", "round_begin", "ORDINARY"} {
		if !strings.Contains(traced.Trace, want) {
			t.Errorf("two-tier trace has no %q line", want)
		}
	}
	if traced.MessagesSent != plain.MessagesSent || traced.SteadySkew != plain.SteadySkew {
		t.Errorf("WithTrace changed the run: %d vs %d messages, steady skew %v vs %v",
			traced.MessagesSent, plain.MessagesSent, traced.SteadySkew, plain.SteadySkew)
	}

	_, err := clocksync.New(60, 0, clocksync.WithClusters(6), clocksync.WithTrace(10), clocksync.WithShards(2))
	if err == nil {
		t.Fatal("New accepted WithTrace with WithShards on a two-tier topology")
	}
	for _, part := range []string{"WithTrace", "-trace", "drop WithTrace or WithShards"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not contain %q", err, part)
		}
	}
}

// TestTwoTierRejections pins the named-error rejections: options that
// configure the flat mesh must not be silently reinterpreted by a two-tier
// topology, and the error must name the offending option.
func TestTwoTierRejections(t *testing.T) {
	tests := []struct {
		name string
		opt  clocksync.Option
	}{
		{"WithDelay", clocksync.WithDelay(5e-3, 1e-3)},
		{"WithBeta", clocksync.WithBeta(4e-3)},
		{"WithDerivedBeta", clocksync.WithDerivedBeta()},
		{"WithAveraging", clocksync.WithAveraging(clocksync.Mean)},
		{"WithKExchanges", clocksync.WithKExchanges(2)},
		{"WithStagger", clocksync.WithStagger(1e-4)},
		{"WithDelayDistribution", clocksync.WithDelayDistribution(clocksync.DelayAdversarial)},
		{"WithRandomDrift", clocksync.WithRandomDrift()},
		{"WithInitialSpread", clocksync.WithInitialSpread(1e-3)},
		{"WithFault", clocksync.WithFault(0, clocksync.FaultSilent)},
		{"WithAdversary", clocksync.WithAdversary("skewmax")},
		{"WithRejoiner", clocksync.WithRejoiner(1, 3, 0.1)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := clocksync.New(60, 0, clocksync.WithClusters(6), tc.opt)
			if err == nil {
				t.Fatalf("New accepted %s with a two-tier topology", tc.name)
			}
			if !strings.Contains(err.Error(), tc.name) {
				t.Errorf("error %q does not name %s", err, tc.name)
			}
		})
	}
	// f is f_out in two-tier mode: a budget the cluster count cannot
	// support must be rejected by the outer tier's A2.
	if _, err := clocksync.New(60, 5, clocksync.WithClusters(6)); err == nil {
		t.Error("New accepted f_out = 5 with only 10 clusters (needs ≥ 16)")
	}
	// Oversized cluster.
	if _, err := clocksync.New(10, 0, clocksync.WithClusters(11)); err == nil {
		t.Error("New accepted a cluster size exceeding n")
	}
}

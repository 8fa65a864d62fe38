package clocksync

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestOptionRules walks the composition table: every row must have a
// setter here (so a new row cannot go untested), and each entry point must
// reject exactly the rows marked for it — naming the option, the wlsim flag
// and the row's reason — and run with every other row's option set. The
// sharded entries pair each row with WithShards(2), on both topologies.
func TestOptionRules(t *testing.T) {
	setters := map[string]Option{
		"WithDelay":                 WithDelay(10e-3, 0.5e-3),
		"WithBeta":                  WithBeta(6e-3),
		"WithDerivedBeta":           WithDerivedBeta(),
		"WithAveraging(Mean)":       WithAveraging(Mean),
		"WithKExchanges":            WithKExchanges(2),
		"WithStagger":               WithStagger(1e-4),
		"WithDelayDistribution":     WithDelayDistribution(DelayAdversarial),
		"WithRandomDrift":           WithRandomDrift(),
		"WithInitialSpread":         WithInitialSpread(1e-3),
		"WithSkewSeries":            WithSkewSeries(1.0),
		"WithFault":                 WithFault(0, FaultSilent),
		"WithAdversary":             WithAdversary("skewmax"),
		"WithRejoiner":              WithRejoiner(1, 3, 0.1),
		"WithTrace":                 WithTrace(10),
		"WithTopology/WithClusters": WithClusters(4),
		"WithShards":                WithShards(2),
	}
	// shardedWith is the row's reason against WithShards(2) + its setter.
	shardedWith := func(r *optionRule) string {
		o := resolve([]Option{WithShards(2), setters[r.option]})
		return o.shardedReason(r)
	}
	entryPoints := []struct {
		name   string
		reason func(r *optionRule) string // "" = the entry point honours the row
		run    func(opt Option) error
	}{
		{"two-tier New", twoTierReason, func(opt Option) error {
			_, err := New(60, 0, WithClusters(6), opt)
			return err
		}},
		{"sharded New", shardedWith, func(opt Option) error {
			_, err := New(60, 3, WithShards(2), opt)
			return err
		}},
		{"sharded two-tier New", func(r *optionRule) string {
			if why := shardedWith(r); why != "" {
				return why // New consults the sharded reasons first
			}
			return twoTierReason(r)
		}, func(opt Option) error {
			_, err := New(60, 0, WithShards(2), WithClusters(6), opt)
			return err
		}},
		{"RunStartup", startupReason, func(opt Option) error {
			_, err := RunStartup(16, 5, 1.0, 3, opt)
			return err
		}},
		{"RunEstablishThenMaintain", lifecycleReason, func(opt Option) error {
			_, err := RunEstablishThenMaintain(7, 2, 1.0, 3, 3, opt)
			return err
		}},
	}
	for i := range optionRules {
		r := &optionRules[i]
		opt, ok := setters[r.option]
		if !ok {
			t.Errorf("optionRules row %q has no setter in this test", r.option)
			continue
		}
		for _, ep := range entryPoints {
			err := ep.run(opt)
			want := ep.reason(r)
			if want == "" {
				if err != nil {
					t.Errorf("%s with %s: %v (the table says it is honoured)", ep.name, r.option, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s accepted %s", ep.name, r.option)
				continue
			}
			for _, part := range []string{r.option, r.flag, want, "drop " + r.option} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("%s with %s: error %q does not contain %q", ep.name, r.option, err, part)
				}
			}
		}
	}

	// Auto — no WithShards — refuses nothing the sharded column names: a run
	// the window does not compose with falls back to the time-major engine.
	// At n = 101 Auto spreads the others over the cores.
	for _, name := range []string{"WithAdversary", "WithTrace"} {
		c, err := New(101, 33, setters[name])
		if err == nil {
			_, err = c.Run(2)
		}
		if err != nil {
			t.Errorf("Auto with %s: %v", name, err)
		}
	}
}

// TestAutoShardsReport: a Run with no WithShards — Auto, at n = 101 two
// partitions on a host with two cores or more — reports exactly what
// WithShards(1) reports, with and without a faulty process.
func TestAutoShardsReport(t *testing.T) {
	for _, n := range []int{7, 31, 101} {
		for _, faulty := range []bool{false, true} {
			var opts []Option
			if faulty {
				opts = append(opts, WithFault(n-1, FaultTwoFaced), WithFault(n-2, FaultNoise))
			}
			run := func(extra ...Option) *Report {
				c, err := New(n, (n-1)/3, append(slices.Clone(opts), extra...)...)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := c.Run(8)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			if auto, one := run(), run(WithShards(1)); !reflect.DeepEqual(auto, one) {
				t.Errorf("n=%d faulty=%v: Auto's report differs from WithShards(1)'s:\n%+v\n%+v", n, faulty, auto, one)
			}
		}
	}
}

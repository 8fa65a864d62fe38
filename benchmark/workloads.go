package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	clocksync "repro"
	"repro/internal/exp"
	"repro/internal/exp/runner"
	"repro/internal/scenario"
)

// opResult is what one op leaves behind: the simulated outcome the checks and
// the digest read (host time is taken by the caller).
type opResult struct {
	rounds              int
	msgs, lost          int64
	maxSkew, steadySkew float64
	maxAdj, gamma       float64
	table               []byte // rendered tables, for the workloads that have goldens
	failure             string // non-empty when the op failed, saying why
}

// instance is a workload after set-up: inputs in memory, op(i) one measured
// op. Ops are issued one at a time by one client (a closed loop); the only
// parallelism is the program's own.
type instance struct {
	op func(i int) opResult
	// warm is the unmeasured warm-up op that ends set-up; nil means op(0),
	// whose outcome the first measured op must then reproduce exactly.
	warm func() opResult
}

func (in *instance) warmUp() opResult {
	if in.warm != nil {
		return in.warm()
	}
	return in.op(0)
}

// workload is one row of the benchmark. The reasons are in BENCHMARK.json
// and README.md.
type workload struct {
	name string
	// minOps is the floor on measured ops, whatever -seconds says, and the
	// number of ops the result digest covers.
	minOps int
	// setupReps is how many times set-up is repeated for the setup_s median.
	setupReps int
	setup     func(root string, seed int64) (*instance, error)
	// traced builds the instrumented twin of the workload for the -trace pass.
	traced func(root string, seed int64, tr tracer) (*tracedInstance, error)
}

// facade describes a workload that is one clocksync.New(...).Run(rounds) per
// op; op i runs with WithSeed(DeriveSeed(seed, i)). The fields beyond n, f
// and rounds are the options the op passes, kept as data so that the traced
// replica is built from the same description.
type facade struct {
	n, f, rounds int
	faults       map[int]clocksync.FaultKind // WithFault per id
	shards       int                         // WithShards when > 1
	twoTier      bool                        // WithClusters(0)
}

func (fc facade) cluster(seed int64) (*clocksync.Cluster, error) {
	opts := []clocksync.Option{clocksync.WithSeed(seed)}
	for id, kind := range fc.faults {
		opts = append(opts, clocksync.WithFault(id, kind))
	}
	if fc.shards > 1 {
		opts = append(opts, clocksync.WithShards(fc.shards))
	}
	if fc.twoTier {
		opts = append(opts, clocksync.WithClusters(0))
	}
	return clocksync.New(fc.n, fc.f, opts...)
}

func (fc facade) run(seed int64) opResult {
	c, err := fc.cluster(seed)
	if err != nil {
		return opResult{failure: err.Error()}
	}
	rep, err := c.Run(fc.rounds)
	if err != nil {
		return opResult{failure: err.Error()}
	}
	r := opResult{
		rounds: rep.Rounds, msgs: rep.MessagesSent, lost: rep.MessagesLost,
		maxSkew: rep.MaxSkew, steadySkew: rep.SteadySkew,
		maxAdj: rep.MaxAdjustment, gamma: rep.Gamma,
	}
	switch {
	case !rep.AgreementHolds():
		r.failure = "agreement (Theorem 16) violated"
	case !rep.AdjustmentBoundHolds():
		r.failure = "adjustment bound (Theorem 4a) violated"
	case !rep.ValidityHolds():
		r.failure = "validity (Theorem 19) violated"
	case rep.TwoTier && !rep.InnerAgreementOK:
		r.failure = "two-tier inner agreement violated"
	}
	return r
}

func (fc facade) setup(_ string, seed int64) (*instance, error) {
	return &instance{op: func(i int) opResult { return fc.run(runner.DeriveSeed(seed, i)) }}, nil
}

var (
	flatN7 = facade{n: 7, f: 2, rounds: 5000, faults: map[int]clocksync.FaultKind{
		6: clocksync.FaultTwoFaced,
		5: clocksync.FaultSilent,
	}}
	flatN101   = facade{n: 101, f: 33, rounds: 20}
	flatN1009  = facade{n: 1009, f: 336, rounds: 4, shards: 2}
	twoTier529 = facade{n: 529, f: 0, rounds: 10, twoTier: true}
)

// workloads lists the six in report order.
func workloads() []workload {
	return []workload{
		{name: "flat_n7_faulty", minOps: 20, setupReps: 5, setup: flatN7.setup, traced: flatTrace(flatN7)},
		{name: "flat_n101_seq", minOps: 6, setupReps: 3, setup: flatN101.setup, traced: flatTrace(flatN101)},
		{name: "flat_n1009_k2", minOps: 3, setupReps: 3, setup: flatN1009.setup, traced: flatTrace(flatN1009)},
		{name: "twotier_n529_seq", minOps: 2, setupReps: 3, setup: twoTier529.setup, traced: twoTierTrace(twoTier529)},
		{name: "scenario_corpus", minOps: 20, setupReps: 21, setup: scenarioSetup, traced: scenarioTrace},
		{name: "experiment_suite", minOps: 1, setupReps: 5, setup: experimentSetup, traced: experimentTrace},
	}
}

func selectWorkloads(names string) ([]workload, error) {
	all := workloads()
	if names == "" {
		return all, nil
	}
	var out []workload
	for _, name := range strings.Split(names, ",") {
		i := slices.IndexFunc(all, func(w workload) bool { return w.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, all[i])
	}
	return out, nil
}

// scenarioDoc is one corpus file with the golden table it must render to.
type scenarioDoc struct {
	file         string
	data, golden []byte
}

const (
	scenarioGoldenDir = "internal/scenario/testdata/golden"
	expGoldenDir      = "internal/exp/testdata/golden"
)

// loadCorpus reads scenarios/*.json and each document's golden table. A
// missing golden is an error: without it the op's output cannot be checked.
func loadCorpus(root string) ([]scenarioDoc, error) {
	files, err := filepath.Glob(filepath.Join(root, "scenarios", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no scenario corpus under %s", filepath.Join(root, "scenarios"))
	}
	docs := make([]scenarioDoc, 0, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		s, err := scenario.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		golden, err := os.ReadFile(filepath.Join(root, scenarioGoldenDir, s.Name+".golden"))
		if err != nil {
			return nil, fmt.Errorf("golden table of %s: %w", f, err)
		}
		docs = append(docs, scenarioDoc{file: filepath.Base(f), data: data, golden: golden})
	}
	return docs, nil
}

// spanFunc is told when a public call named by the span began, once it has
// returned; the untraced pass passes noSpan.
type spanFunc func(name string, since stamp)

func noSpan(string, stamp) {}

// runScenario is the op's body for one document: Parse → Run → Table
// rendered.
func runScenario(d scenarioDoc, out *bytes.Buffer, r *opResult, span spanFunc) {
	fail := func(err error) { r.failure = fmt.Sprintf("%s: %v", d.file, err) }
	t := now()
	s, err := scenario.Parse(d.data)
	if err == nil {
		err = s.Validate()
	}
	span("scenario.parse", t)
	if err != nil {
		fail(err)
		return
	}
	t = now()
	rep, err := scenario.Run(s)
	span("scenario.run", t)
	if err != nil {
		fail(err)
		return
	}
	t = now()
	start := out.Len()
	tbl := rep.Table()
	tbl.Render(out)
	tbl.Markdown(out)
	span("scenario.table", t)
	r.rounds += rep.Result.Rounds.Rounds()
	r.msgs += rep.Result.MessagesSent()
	r.lost += rep.Result.MessagesLost()
	switch {
	case !rep.Ok():
		r.failure = fmt.Sprintf("%s: assertions failed: %s", d.file, strings.Join(rep.Failures, "; "))
	case !bytes.Equal(out.Bytes()[start:], d.golden):
		r.failure = fmt.Sprintf("%s: table differs from its golden", d.file)
	}
}

func scenarioSetup(root string, _ int64) (*instance, error) {
	docs, err := loadCorpus(root)
	if err != nil {
		return nil, err
	}
	return &instance{op: func(int) opResult {
		var r opResult
		var out bytes.Buffer
		for _, d := range docs {
			runScenario(d, &out, &r, noSpan)
		}
		r.table = out.Bytes()
		return r
	}}, nil
}

// heavyExperiment marks the experiments with large sharded or two-tier legs;
// the rest run in well under a second together and serve as the warm-up.
func heavyExperiment(id string) bool { return id == "E19" || id == "E20" }

// loadExperimentGoldens reads the golden table file of every experiment.
func loadExperimentGoldens(root string) (map[string][]byte, error) {
	goldens := map[string][]byte{}
	for _, e := range exp.All() {
		g, err := os.ReadFile(filepath.Join(root, expGoldenDir, e.ID+".golden"))
		if err != nil {
			return nil, fmt.Errorf("golden table of %s: %w", e.ID, err)
		}
		goldens[e.ID] = g
	}
	return goldens, nil
}

// runExperiment runs one experiment at its default tiers, renders its tables
// as the golden files do and checks them.
func runExperiment(e exp.Experiment, golden []byte, out *bytes.Buffer, r *opResult, span spanFunc) {
	t := now()
	tables, err := e.Run()
	span("exp."+e.ID, t)
	if err != nil {
		r.failure = fmt.Sprintf("%s: %v", e.ID, err)
		return
	}
	t = now()
	start := out.Len()
	for _, tbl := range tables {
		tbl.Render(out)
		tbl.Markdown(out)
	}
	span("exp.render", t)
	if !bytes.Equal(out.Bytes()[start:], golden) {
		r.failure = fmt.Sprintf("%s: tables differ from the golden", e.ID)
	}
}

func experimentSetup(root string, _ int64) (*instance, error) {
	goldens, err := loadExperimentGoldens(root)
	if err != nil {
		return nil, err
	}
	suite := func(include func(id string) bool) opResult {
		var r opResult
		var out bytes.Buffer
		for _, e := range exp.All() {
			if include(e.ID) {
				runExperiment(e, goldens[e.ID], &out, &r, noSpan)
			}
		}
		r.table = out.Bytes()
		return r
	}
	return &instance{
		op: func(int) opResult { return suite(func(string) bool { return true }) },
		// A full suite is ~12 s, too long to repeat for a set-up median; the
		// light experiments warm the runner pool and the heap instead.
		warm: func() opResult { return suite(func(id string) bool { return !heavyExperiment(id) }) },
	}, nil
}

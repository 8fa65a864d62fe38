package scenario

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/invariant"
	"repro/internal/sim"
)

// Report is the outcome of one scenario run: the harness result plus the
// assertion verdicts. Failures empty means every assertion held (including
// the expected-violation markers — a scenario that promises a break and
// fails to break FAILS).
type Report struct {
	Scenario *Scenario
	Result   *exp.Result
	// Failures lists every assertion that did not hold, in evaluation
	// order (invariants, skew envelope, rejoin expectations, runtime
	// errors from timeline actions).
	Failures []string

	gates map[sim.ProcID]*core.CrashRejoin
}

// Ok reports whether every assertion held.
func (r *Report) Ok() bool { return len(r.Failures) == 0 }

// Run checks and lowers the scenario in one pass, executes it, then
// evaluates its assertions. The error return covers malformed scenarios
// (the same error Validate returns) and harness failures; assertion
// outcomes land in Report.Failures.
func Run(s *Scenario) (*Report, error) {
	c, err := lower(s)
	if err != nil {
		return nil, err
	}
	res, err := exp.Run(c.w)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	rep := &Report{Scenario: s, Result: res, gates: c.gates}
	rep.Failures = append(rep.Failures, c.runtimeErrs...)
	rep.evaluate()
	return rep, nil
}

// evaluate applies the scenario's assertions to the finished run.
func (r *Report) evaluate() {
	s, res := r.Scenario, r.Result
	expect := map[string]bool{}
	for _, name := range s.Assertions.ExpectViolations {
		expect[name] = true
	}
	if suite := res.Invariants; suite != nil {
		for _, ck := range suite.Checkers() {
			switch {
			case expect[ck.Name()] && ck.Ok():
				r.fail("expected a %s violation, but the invariant held (%d checks)", ck.Name(), ck.Checked())
			case !expect[ck.Name()] && !ck.Ok():
				r.fail("invariant %s violated ×%d (worst +%.3gs)", ck.Name(), ck.Count(), ck.Worst())
			}
		}
	}
	if c := s.Assertions.SkewMaxGammas; c > 0 {
		bound := c * r.gamma()
		if skew := res.Skew.MaxAfterWarmup(); skew > bound {
			r.fail("steady-state max skew %s exceeds %.3g·γ = %s", exp.FmtDur(skew), c, exp.FmtDur(bound))
		}
	}
	for _, q := range s.Assertions.ExpectRejoined {
		g := r.gates[sim.ProcID(q)]
		if g == nil || !g.Rejoined() {
			r.fail("proc %d never completed §9.1 reintegration", q)
		}
	}
}

func (r *Report) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *Report) gamma() float64 { return r.Scenario.params().Gamma() }

// Table renders the report as the repository's standard table shape, one
// quantity per row — deterministic, so the scenario corpus is pinnable
// byte-for-byte by the golden harness.
func (r *Report) Table() *exp.Table {
	s, res := r.Scenario, r.Result
	t := &exp.Table{
		ID:       "SCN",
		Title:    s.Name,
		PaperRef: "scenario DSL",
		Columns:  []string{"quantity", "value"},
	}
	t.AddRow("processes (n, f)", fmt.Sprintf("%d, %d", s.Topology.N, s.Topology.F))
	if fs := s.Topology.Faults; fs != nil {
		t.AddRow("fault strategy", fs.Strategy)
	}
	t.AddRow("rounds completed", fmt.Sprintf("%d", res.Rounds.Rounds()))
	t.AddRow("scripted events", fmt.Sprintf("%d", len(s.Events)))
	t.AddRow("messages sent / lost", fmt.Sprintf("%d / %d", res.MessagesSent(), res.MessagesLost()))
	t.AddRow("steady skew", exp.FmtDur(res.Skew.MaxAfterWarmup()))
	t.AddRow("max skew", exp.FmtDur(res.Skew.Max()))
	t.AddRow("agreement bound γ", exp.FmtDur(r.gamma()))
	if suite := res.Invariants; suite != nil {
		expect := map[string]bool{}
		for _, name := range s.Assertions.ExpectViolations {
			expect[name] = true
		}
		for _, ck := range suite.Checkers() {
			t.AddRow("invariant: "+ck.Name(), checkerCell(ck, expect[ck.Name()]))
		}
	}
	if c := s.Assertions.SkewMaxGammas; c > 0 {
		bound := c * r.gamma()
		skew := res.Skew.MaxAfterWarmup()
		t.AddRow(fmt.Sprintf("skew ≤ %.3g·γ", c),
			fmt.Sprintf("%s ≤ %s %s", exp.FmtDur(skew), exp.FmtDur(bound), exp.Verdict(skew <= bound)))
	}
	for _, q := range sortedInts(s.Assertions.ExpectRejoined) {
		g := r.gates[sim.ProcID(q)]
		t.AddRow(fmt.Sprintf("proc %d rejoined", q), exp.Verdict(g != nil && g.Rejoined()))
	}
	t.AddRow("assertions", assertionsCell(r))
	if s.Description != "" {
		t.AddNote("%s", s.Description)
	}
	for _, f := range r.Failures {
		t.AddNote("FAILED: %s", f)
	}
	return t
}

// checkerCell renders one invariant's verdict, expected-violation aware:
// a checker that must break renders ok only when it actually broke.
func checkerCell(ck invariant.Checker, expected bool) string {
	switch {
	case expected && !ck.Ok():
		return fmt.Sprintf("VIOLATED ×%d (expected)", ck.Count())
	case expected && ck.Ok():
		return fmt.Sprintf("held (%d checks) — expected a violation", ck.Checked())
	case ck.Ok():
		return fmt.Sprintf("ok (%d checks)", ck.Checked())
	default:
		return fmt.Sprintf("VIOLATED ×%d", ck.Count())
	}
}

func assertionsCell(r *Report) string {
	if r.Ok() {
		return "ok"
	}
	return fmt.Sprintf("FAILED (%d)", len(r.Failures))
}

func sortedInts(in []int) []int {
	out := append([]int(nil), in...)
	sort.Ints(out)
	return out
}

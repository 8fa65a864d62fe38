package scenario

import (
	"strings"
	"testing"
)

// TestRunRejectsInvalid pins that Run front-loads validation.
func TestRunRejectsInvalid(t *testing.T) {
	if _, err := Run(&Scenario{}); err == nil || !strings.Contains(err.Error(), "missing name") {
		t.Fatalf("Run on an invalid scenario: err = %v, want missing-name validation error", err)
	}
}

// TestRunBenign pins the happy path end to end: a fault-free scenario runs,
// every invariant holds, and the report carries no failures.
func TestRunBenign(t *testing.T) {
	s := valid()
	s.Assertions.Invariants = true
	s.Assertions.SkewMaxGammas = 1
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("benign scenario failed assertions: %v", rep.Failures)
	}
	if rep.Result.MessagesSent() == 0 {
		t.Fatal("no messages sent — the scenario did not actually run")
	}
}

// TestRunExpectedViolationMissing pins the inverted assertion: a scenario
// that promises a break and fails to break FAILS its report.
func TestRunExpectedViolationMissing(t *testing.T) {
	s := valid()
	s.Assertions.Invariants = true
	// Benign run, but the scenario claims agreement must break.
	s.Assertions.ExpectViolations = []string{"agreement"}
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("report Ok despite an unmet expected violation")
	}
	found := false
	for _, f := range rep.Failures {
		if strings.Contains(f, "expected a agreement violation") {
			found = true
		}
	}
	if !found {
		t.Errorf("failures %v lack the unmet-expectation message", rep.Failures)
	}
}

// TestRunUnexpectedViolation pins the ordinary assertion direction: an
// actual violation not marked expected fails the report.
func TestRunUnexpectedViolation(t *testing.T) {
	s := valid()
	s.Assertions.Invariants = true
	// Partition worse than f with no expected-violation markers.
	s.Events = []Event{{At: 3.3, Kind: KindPartition, Groups: [][]int{{0, 1, 2, 3, 4}, {5, 6}}}}
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("report Ok despite an unexpected invariant violation")
	}
	found := false
	for _, f := range rep.Failures {
		if strings.Contains(f, "invariant agreement violated") {
			found = true
		}
	}
	if !found {
		t.Errorf("failures %v lack the agreement-violation message", rep.Failures)
	}
}

// TestRunPartitionWithinF pins graceful degradation: a partition-style cut
// that leaves every receiver short at most f senders must not break
// anything.
func TestRunPartitionWithinF(t *testing.T) {
	s := valid()
	s.Assertions.Invariants = true
	s.Events = []Event{
		{At: 3.3, Kind: KindCut, Links: [][]int{{5, 0}, {5, 1}, {6, 0}, {6, 1}}},
		{At: 7.4, Kind: KindHeal},
	}
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("≤ f link cut broke assertions: %v", rep.Failures)
	}
	if rep.Result.MessagesLost() == 0 {
		t.Fatal("no messages lost — the cut never took effect")
	}
}

// TestRunCrashRejoin pins the crash/rejoin lifecycle: the crashed process stops
// participating, rejoins through §9.1, and reports Joined; the invariant
// suite never sees its dead clock.
func TestRunCrashRejoin(t *testing.T) {
	s := valid()
	s.Rounds = 14
	s.Events = []Event{
		{At: 4.3, Kind: KindCrash, Proc: intp(6)},
		{At: 8.25, Kind: KindRejoin, Proc: intp(6)},
	}
	s.Assertions.Invariants = true
	s.Assertions.ExpectRejoined = []int{6}
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("crash/rejoin scenario failed assertions: %v", rep.Failures)
	}
	g := rep.gates[6]
	if g == nil || !g.Rejoined() {
		t.Fatal("crash/rejoin wrapper for proc 6 missing or never rejoined")
	}
}

// TestRunCrashWithoutRejoinFailsExpectation pins the other direction: a
// process that crashes and never comes back cannot satisfy expect_rejoined
// (constructed via the unexported report path — Validate would reject the
// scenario shape up front).
func TestRunCrashWithoutRejoin(t *testing.T) {
	s := valid()
	s.Events = []Event{{At: 4.3, Kind: KindCrash, Proc: intp(6)}}
	s.Assertions.Invariants = true
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("crash-only scenario failed assertions: %v", rep.Failures)
	}
	if g := rep.gates[6]; g == nil || g.Rejoined() {
		t.Fatal("crash/rejoin wrapper for proc 6 missing or claims to have rejoined while down")
	}
}

// TestRunTableShape pins the report table's deterministic shape: the golden
// harness depends on every row rendering from run state only.
func TestRunTableShape(t *testing.T) {
	s := valid()
	s.Assertions.Invariants = true
	s.Assertions.SkewMaxGammas = 1
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Table()
	if tbl.ID != "SCN" || tbl.Title != "t" {
		t.Errorf("table identity = (%s, %s), want (SCN, t)", tbl.ID, tbl.Title)
	}
	want := []string{"processes (n, f)", "invariant: agreement", "invariant: validity",
		"invariant: monotonicity", "invariant: adjustment", "assertions"}
	have := map[string]bool{}
	for _, row := range tbl.Rows {
		have[row[0]] = true
	}
	for _, q := range want {
		if !have[q] {
			t.Errorf("table lacks row %q", q)
		}
	}
}

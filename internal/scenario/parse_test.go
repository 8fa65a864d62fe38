package scenario

import (
	"strings"
	"testing"
)

func intp(v int) *int { return &v }

// valid returns a minimal well-formed scenario for the error tables to
// mutate.
func valid() *Scenario {
	return &Scenario{
		Name:     "t",
		Topology: Topology{N: 7, F: 2},
	}
}

// TestParseErrors pins the decoder's error paths: a malformed scenario file
// must produce a descriptive error, never a panic and never a silently
// ignored field.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error; empty means parse must succeed
	}{
		{"empty input", ``, "parse"},
		{"not json", `{"name": `, "parse"},
		{"wrong root type", `[1, 2]`, "parse"},
		{"unknown top-level field", `{"name": "x", "topolgy": {"n": 7}}`, "unknown field"},
		{"unknown event field", `{"name": "x", "events": [{"at": 1, "kind": "heal", "procs": 3}]}`, "unknown field"},
		{"unknown assertion field", `{"name": "x", "assertions": {"invariant": true}}`, "unknown field"},
		{"wrong field type", `{"name": "x", "topology": {"n": "seven"}}`, "parse"},
		{"trailing data", `{"name": "x"} {"name": "y"}`, "trailing data"},
		{"minimal ok", `{"name": "x", "topology": {"n": 4, "f": 1}}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Parse: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Parse accepted %q, want error containing %q", tc.in, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Parse error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestValidateErrors is the semantic error table: every malformed scenario
// shape the DSL rejects, each with a descriptive error naming the offender.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(s *Scenario)
		want string
	}{
		{"missing name", func(s *Scenario) { s.Name = "" }, "missing name"},
		{"n zero", func(s *Scenario) { s.Topology.N = 0 }, "must be positive"},
		{"f negative", func(s *Scenario) { s.Topology.F = -1 }, "must be nonnegative"},
		{"A2 violated", func(s *Scenario) { s.Topology = Topology{N: 6, F: 2} }, "parameters"},
		{"rounds negative", func(s *Scenario) { s.Rounds = -1 }, "outside [0, 1000]"},
		{"rounds huge", func(s *Scenario) { s.Rounds = 5000 }, "outside [0, 1000]"},
		{"warmup negative", func(s *Scenario) { s.WarmupRounds = -1 }, "warmup_rounds"},
		{"warmup past rounds", func(s *Scenario) { s.Rounds, s.WarmupRounds = 10, 11 }, "warmup_rounds"},
		{"A3-invalid params ε > δ", func(s *Scenario) { s.Params = Params{Delta: 0.001, Eps: 0.002} }, "parameters"},
		{"A1-invalid drift", func(s *Scenario) { s.Params.Rho = -0.5 }, "parameters"},
		{"unknown delay model", func(s *Scenario) { s.Delay.Model = "gaussian" }, `unknown delay model "gaussian"`},
		{"delay band escapes A3 envelope", func(s *Scenario) { s.Delay = Delay{Delta: 0.02} }, "escapes the parameters' A3 envelope"},
		{"delay band inverted", func(s *Scenario) { s.Delay = Delay{Delta: 0.0001, Eps: 0.001} }, "violates assumption A3"},
		{"unknown fault strategy", func(s *Scenario) { s.Topology.Faults = &FaultSpec{Strategy: "gremlin"} }, `"gremlin"`},
		{"fault member out of range", func(s *Scenario) {
			s.Topology.Faults = &FaultSpec{Strategy: "silent", Members: []int{7}}
		}, "out of range"},
		{"fault member negative", func(s *Scenario) {
			s.Topology.Faults = &FaultSpec{Strategy: "silent", Members: []int{-1}}
		}, "out of range"},
		{"fault member duplicated", func(s *Scenario) {
			s.Topology.Faults = &FaultSpec{Strategy: "silent", Members: []int{3, 3}}
		}, "listed twice"},
		{"all processes faulty", func(s *Scenario) {
			s.Topology.Faults = &FaultSpec{Strategy: "silent", Members: []int{0, 1, 2, 3, 4, 5, 6}}
		}, "claims all 7 processes"},
		{"event at negative", func(s *Scenario) {
			s.Events = []Event{{At: -1, Kind: KindHeal}}
		}, "is negative"},
		{"event past horizon", func(s *Scenario) {
			s.Events = []Event{{At: 1e6, Kind: KindHeal}}
		}, "it would never fire"},
		{"unknown event kind", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: "reboot"}}
		}, `unknown event kind "reboot"`},
		{"crash missing proc", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindCrash}}
		}, "missing proc"},
		{"crash proc out of range", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindCrash, Proc: intp(9)}}
		}, "out of range"},
		{"crash of a fault member", func(s *Scenario) {
			s.Topology.Faults = &FaultSpec{Strategy: "silent", Members: []int{6}}
			s.Events = []Event{{At: 1, Kind: KindCrash, Proc: intp(6)}}
		}, "already a member of fault strategy"},
		{"crash of a default-placed fault member", func(s *Scenario) {
			s.Topology.Faults = &FaultSpec{Strategy: "two-faced"}
			s.Events = []Event{{At: 1, Kind: KindCrash, Proc: intp(6)}}
		}, `proc 6 is already a member of fault strategy "two-faced"`},
		{"crash while already down", func(s *Scenario) {
			s.Events = []Event{
				{At: 1, Kind: KindCrash, Proc: intp(3)},
				{At: 2, Kind: KindCrash, Proc: intp(3)},
			}
		}, "already down"},
		{"rejoin without crash", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindRejoin, Proc: intp(3)}}
		}, "without a prior crash"},
		{"rejoin before crash in time", func(s *Scenario) {
			// File order says crash first, firing order says rejoin first.
			s.Events = []Event{
				{At: 5, Kind: KindCrash, Proc: intp(3)},
				{At: 2, Kind: KindRejoin, Proc: intp(3)},
			}
		}, "without a prior crash"},
		{"partition single group", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindPartition, Groups: [][]int{{0, 1, 2}}}}
		}, "at least 2 groups"},
		{"partition empty group", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindPartition, Groups: [][]int{{0, 1}, {}}}}
		}, "empty group"},
		{"partition overlapping groups", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindPartition, Groups: [][]int{{0, 1}, {1, 2}}}}
		}, "appears in two groups"},
		{"partition proc out of range", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindPartition, Groups: [][]int{{0}, {9}}}}
		}, "out of range"},
		{"cut no links", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindCut}}
		}, "no links"},
		{"cut malformed pair", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindCut, Links: [][]int{{1, 2, 3}}}}
		}, "must be a [from, to] pair"},
		{"cut out of range", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindCut, Links: [][]int{{0, 9}}}}
		}, "out of range"},
		{"cut loopback", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindCut, Links: [][]int{{3, 3}}}}
		}, "loopback"},
		{"delay-shift unknown model", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindDelayShift, Model: "pareto", Delta: 0.01, Eps: 0.001}}
		}, `unknown delay model "pareto"`},
		{"delay-shift escapes envelope", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindDelayShift, Delta: 0.05, Eps: 0.001}}
		}, "escapes the parameters' A3 envelope"},
		{"delay-shift zero band", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindDelayShift}}
		}, "violates assumption A3"},
		{"adversary-swap missing strategy", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindAdversarySwap}}
		}, "missing strategy"},
		{"adversary-swap unknown strategy", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindAdversarySwap, Strategy: "chaosmonkey"}}
		}, `"chaosmonkey"`},
		{"adversary-swap schedule-driven strategy", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindAdversarySwap, Strategy: "silent"}}
		}, "schedule-driven"},
		{"skew gammas negative", func(s *Scenario) {
			s.Assertions.SkewMaxGammas = -1
		}, "is negative"},
		{"expect_violations without invariants", func(s *Scenario) {
			s.Assertions.ExpectViolations = []string{"agreement"}
		}, "requires assertions.invariants"},
		{"expect_violations unknown invariant", func(s *Scenario) {
			s.Assertions.Invariants = true
			s.Assertions.ExpectViolations = []string{"liveness"}
		}, `unknown invariant "liveness"`},
		{"expect_violations duplicate", func(s *Scenario) {
			s.Assertions.Invariants = true
			s.Assertions.ExpectViolations = []string{"agreement", "agreement"}
		}, `names "agreement" twice`},
		{"expect_rejoined out of range", func(s *Scenario) {
			s.Assertions.ExpectRejoined = []int{9}
		}, "out of range"},
		{"expect_rejoined never rejoined", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindCrash, Proc: intp(3)}}
			s.Assertions.ExpectRejoined = []int{3}
		}, "never rejoins it"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted the scenario, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestValidateAccepts pins shapes that must be legal.
func TestValidateAccepts(t *testing.T) {
	cases := []struct {
		name string
		mut  func(s *Scenario)
	}{
		{"minimal", func(s *Scenario) {}},
		{"zero rounds means default", func(s *Scenario) { s.Rounds = 0 }},
		{"sub-band delay", func(s *Scenario) { s.Delay = Delay{Delta: 0.0102, Eps: 0.0004} }},
		{"constant model ignores eps", func(s *Scenario) { s.Delay = Delay{Model: "constant", Delta: 0.0102, Eps: 0.5} }},
		{"adaptive fault strategy without members", func(s *Scenario) {
			s.Topology.Faults = &FaultSpec{Strategy: "skewmax"}
		}},
		{"crash then rejoin then crash again", func(s *Scenario) {
			s.Events = []Event{
				{At: 1, Kind: KindCrash, Proc: intp(3)},
				{At: 3, Kind: KindRejoin, Proc: intp(3)},
				{At: 5, Kind: KindCrash, Proc: intp(3)},
			}
		}},
		{"adversary-swap none", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindAdversarySwap, Strategy: "none"}}
		}},
		{"heal without a prior cut", func(s *Scenario) {
			s.Events = []Event{{At: 1, Kind: KindHeal}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mut(s)
			if err := s.Validate(); err != nil {
				t.Errorf("Validate rejected a legal scenario: %v", err)
			}
		})
	}
}

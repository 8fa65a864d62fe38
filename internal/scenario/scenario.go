// Package scenario implements the declarative scenario DSL: a JSON format
// describing one complete chaos experiment — topology (n, f, fault
// strategy), delay substrate, a timed event script (crashes, rejoins,
// partitions, link cuts, delay-band shifts, adversary swaps), and the
// assertions the execution must satisfy (the theorem invariants, a skew
// envelope, expected-violation markers for runs that are supposed to break).
//
// A scenario file is parsed (Parse/Load), validated against the paper's
// standing assumptions A1–A3 (Scenario.Validate), compiled onto the
// experiment harness — the event script lowers to sim.TimedActions on the
// engine's timeline stage (internal/sim/timeline.go), faults to the
// internal/faults registry, the substrate to a sim.DelayModel — and run
// (Run), producing a Report whose rendered table is pinned byte-for-byte by
// the golden corpus test. `cmd/wlsim -scenario <file>` runs one from the
// command line.
//
// The repository's corpus lives in scenarios/*.json at the module root.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Scenario is the root of the DSL: one fully described execution.
type Scenario struct {
	// Name identifies the scenario in tables, goldens and errors.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	Topology Topology `json:"topology"`

	// Params overrides individual paper parameters; zero fields inherit
	// analysis.Default(n, f) (ρ=1e−5, δ=10ms, ε=1ms, β=5.5ms, P=1s, T⁰=0).
	Params Params `json:"params,omitempty"`

	// Delay selects the delay substrate; the zero value is the uniform
	// model over the full [δ−ε, δ+ε] band of the parameters.
	Delay Delay `json:"delay,omitempty"`

	// Rounds to simulate; 0 means 12.
	Rounds int `json:"rounds,omitempty"`
	// WarmupRounds sets the steady-state boundary for the agreement
	// invariant and the steady-skew measurement; 0 means Rounds/2.
	WarmupRounds int `json:"warmup_rounds,omitempty"`
	// Seed drives delay sampling and seeded fault strategies; 0 means 1.
	Seed int64 `json:"seed,omitempty"`

	// Events is the timed chaos script, compiled onto the engine's
	// timeline stage. Times are real-time seconds.
	Events []Event `json:"events,omitempty"`

	Assertions Assertions `json:"assertions,omitempty"`
}

// Topology fixes the process set and the fault assignment.
type Topology struct {
	// N is the number of processes, F the algorithm's tolerance parameter
	// (assumption A2 requires n ≥ 3f+1; the *actual* fault assignment may
	// exceed F to demonstrate sharpness).
	N int `json:"n"`
	F int `json:"f"`
	// Faults, when present, assigns a registered fault strategy
	// (internal/faults) to a member set.
	Faults *FaultSpec `json:"faults,omitempty"`
}

// FaultSpec names a strategy from the internal/faults registry.
type FaultSpec struct {
	// Strategy is the registered name (wlsim -adversary-list enumerates).
	Strategy string `json:"strategy"`
	// Members are the faulty process ids; empty means the strategy's
	// conventional placement (faults.Place): the top F ids, or no members
	// for a pure delivery adversary (skewmax). Crash and rejoin events may
	// not target a member either way.
	Members []int `json:"members,omitempty"`
	// Seed parameterizes randomized strategies; 0 inherits Scenario.Seed.
	Seed int64 `json:"seed,omitempty"`
}

// Params mirrors analysis.Params with inherit-on-zero semantics.
type Params struct {
	Rho   float64 `json:"rho,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	Eps   float64 `json:"eps,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	P     float64 `json:"p,omitempty"`
	T0    float64 `json:"t0,omitempty"`
}

// Delay selects the substrate the message delays are drawn from. The band
// (Delta, Eps) defaults to the paper parameters; a narrower band (a
// sub-band of [δ−ε, δ+ε]) is valid, a band escaping the parameters'
// envelope violates A3 and is rejected.
type Delay struct {
	// Model is one of "uniform" (default), "constant", "extremal",
	// "center".
	Model string `json:"model,omitempty"`
	// Delta is the substrate's median delay; 0 inherits the parameters' δ.
	Delta float64 `json:"delta,omitempty"`
	// Eps is the substrate's uncertainty; 0 inherits the parameters' ε for
	// the uniform/extremal/center models ("constant" always has ε = 0).
	Eps float64 `json:"eps,omitempty"`
}

// Event is one entry of the chaos script. Kind selects the action; the
// remaining fields are kind-specific.
type Event struct {
	// At is the real time (seconds) the action fires, interleaved
	// deterministically with deliveries (an action at t precedes every
	// delivery at or after t).
	At   float64 `json:"at"`
	Kind string  `json:"kind"`

	// Proc targets one process ("crash", "rejoin").
	Proc *int `json:"proc,omitempty"`
	// Groups partitions the id space ("partition"): all links between
	// different groups are cut, both directions. Ids left out of every
	// group keep their links to every group.
	Groups [][]int `json:"groups,omitempty"`
	// Links are [from, to] pairs cut in both directions ("cut").
	Links [][]int `json:"links,omitempty"`
	// Delta/Eps/Model describe the new substrate ("delay-shift"); Model
	// empty keeps the scenario's configured model kind.
	Delta float64 `json:"delta,omitempty"`
	Eps   float64 `json:"eps,omitempty"`
	Model string  `json:"model,omitempty"`
	// Strategy names an adaptive strategy whose network adversary is
	// installed ("adversary-swap"); "none" removes the current one. Only
	// the delivery-retiming half of the strategy is swapped in — faulty
	// automata cannot be installed mid-run.
	Strategy string `json:"strategy,omitempty"`
}

// Event kinds.
const (
	KindCrash         = "crash"
	KindRejoin        = "rejoin"
	KindPartition     = "partition"
	KindCut           = "cut"
	KindHeal          = "heal"
	KindDelayShift    = "delay-shift"
	KindAdversarySwap = "adversary-swap"
)

// Assertions declares what the execution must satisfy. A scenario whose
// assertions do not hold fails its Report (and `wlsim -scenario` exits
// nonzero).
type Assertions struct {
	// Invariants attaches the theorem suite (agreement, validity,
	// monotonicity, adjustment — internal/invariant); every checker must
	// hold except those named in ExpectViolations.
	Invariants bool `json:"invariants,omitempty"`
	// ExpectViolations names checkers that MUST record violations — the
	// scenario demonstrates a guarantee breaking (e.g. agreement at
	// f ≥ n/3). Checkers not named must stay clean. Requires Invariants.
	ExpectViolations []string `json:"expect_violations,omitempty"`
	// SkewMaxGammas, when positive, bounds the steady-state max skew by
	// this multiple of the Theorem 16 agreement bound γ.
	SkewMaxGammas float64 `json:"skew_max_gammas,omitempty"`
	// ExpectRejoined names crashed-and-rejoined processes that must have
	// completed §9.1 reintegration by the end of the run.
	ExpectRejoined []int `json:"expect_rejoined,omitempty"`
}

// Parse decodes one scenario from JSON. Unknown fields are errors — a
// typoed key silently ignored would make a chaos script lie about what it
// tests. Parse does not validate semantics; call Validate (or use Run,
// which validates).
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	// A second document in the same file is a mistake, not extra input.
	if dec.More() {
		return nil, fmt.Errorf("scenario: parse: trailing data after the scenario object")
	}
	return &s, nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return s, nil
}

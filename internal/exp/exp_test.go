package exp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/sim"
)

func TestTableRenderText(t *testing.T) {
	tbl := &Table{
		ID:       "T1",
		Title:    "demo",
		PaperRef: "Thm X",
		Columns:  []string{"a", "longer"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	tbl.AddNote("hello %d", 7)
	var b strings.Builder
	tbl.Render(&b)
	out := b.String()
	for _, want := range []string{"T1 — demo", "[Thm X]", "a", "longer", "333", "note: hello 7", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTableRenderMarkdown(t *testing.T) {
	tbl := &Table{ID: "T2", Title: "md", PaperRef: "§9", Columns: []string{"x", "y"}}
	tbl.AddRow("a", "b")
	tbl.AddNote("n")
	var b strings.Builder
	tbl.Markdown(&b)
	out := b.String()
	for _, want := range []string{"### T2 — md", "| x | y |", "| --- | --- |", "| a | b |", "*Note: n*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestFmtDur(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{math.Copysign(0, -1), "0"},
		{1.5, "1.500s"},
		{12e-3, "12.000ms"},
		{3.25e-6, "3.250µs"},
		{4e-9, "4.0ns"},
		{-1.5, "-1.500s"},
		{-2e-3, "-2.000ms"},
		{-3.25e-6, "-3.250µs"},
		{-4e-9, "-4.0ns"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
	}
	for _, tt := range tests {
		if got := FmtDur(tt.in); got != tt.want {
			t.Errorf("FmtDur(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	if Verdict(true) != "ok" || Verdict(false) != "VIOLATED" {
		t.Error("Verdict rendering wrong")
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 16 {
		t.Fatalf("registry has %d experiments, want ≥ 16", len(all))
	}
	// Sorted by id, unique, well formed.
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Errorf("experiment %d incomplete: %+v", i, e)
		}
		if i > 0 && all[i-1].ID >= e.ID {
			t.Errorf("registry not sorted: %s before %s", all[i-1].ID, e.ID)
		}
	}
	if _, err := ByID("E01"); err != nil {
		t.Errorf("ByID(E01): %v", err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID(nope) should fail")
	}
}

func TestRunDefaults(t *testing.T) {
	cfg := core.Config{Params: analysis.Default(4, 1)}
	res, err := Run(Workload{Cfg: cfg, Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds.Rounds() < 5 {
		t.Errorf("rounds = %d", res.Rounds.Rounds())
	}
	if res.Engine == nil || res.Skew == nil || res.Validity == nil {
		t.Error("result incomplete")
	}
}

func TestRunRejectsEmptyWorkload(t *testing.T) {
	if _, err := Run(Workload{}); err == nil {
		t.Error("empty workload accepted")
	}
}

// TestRunTwoTierWorkload: the topology field takes a built hierarchy through
// the same execute step — faults substituted and flagged, the topology's own
// recorders attached, either engine — and refuses the fields that describe
// the flat mesh instead of dropping them.
func TestRunTwoTierWorkload(t *testing.T) {
	build := func() *hier.System {
		s, err := hier.Build(hier.Default(32, 4))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	seq, err := Run(Workload{
		Hier: build(), Rounds: 4,
		Faults: map[sim.ProcID]func() sim.Process{5: func() sim.Process { return silentProc{} }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Faulty(5) || seq.HierAgreement.Checked() == 0 || !seq.HierAgreement.Ok() || seq.Skew.Max() <= 0 {
		t.Errorf("faulty(5)=%v, hier-agreement %d checked ok=%v, max skew %v",
			seq.Faulty(5), seq.HierAgreement.Checked(), seq.HierAgreement.Ok(), seq.Skew.Max())
	}
	if seq.Rounds != nil || seq.Validity != nil || seq.Invariants != nil {
		t.Error("two-tier run carries flat-mesh recorders")
	}
	plain, err := Run(Workload{Hier: build(), Rounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := Run(Workload{Hier: build(), Rounds: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sh.MessagesSent() != plain.MessagesSent() || sh.MessagesSent() <= seq.MessagesSent() {
		t.Errorf("messages: sharded %d, sequential %d, with a silent member %d", sh.MessagesSent(), plain.MessagesSent(), seq.MessagesSent())
	}
	if plain.Windows() != 0 || sh.Windows() == 0 {
		t.Errorf("windows: sequential %d (want 0, it has none), sharded %d", plain.Windows(), sh.Windows())
	}
	_, err = Run(Workload{Hier: build(), Rounds: 4, CheckInvariants: true})
	if err == nil || !strings.Contains(err.Error(), "CheckInvariants") {
		t.Errorf("two-tier workload with CheckInvariants: %v, want a named error", err)
	}
}

// TestRunEnginesAgree is the harness differential: a flat workload (uniform
// delays, two silent faults) and a two-tier hierarchy, each run on the
// sequential engine and on two shards, are one execution — equal step and
// message counts and, read through the Runner, bit-equal local times for
// every process at the horizon.
func TestRunEnginesAgree(t *testing.T) {
	silent := func() sim.Process { return silentProc{} }
	for _, tc := range []struct {
		name string
		w    func() Workload
	}{
		{"flat", func() Workload {
			return Workload{
				Cfg: core.Config{Params: analysis.Default(7, 2)}, Rounds: 6,
				Faults: map[sim.ProcID]func() sim.Process{5: silent, 6: silent},
			}
		}},
		{"two-tier", func() Workload {
			s, err := hier.Build(hier.Default(32, 4))
			if err != nil {
				t.Fatal(err)
			}
			return Workload{Hier: s, Rounds: 4}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := Run(tc.w())
			if err != nil {
				t.Fatal(err)
			}
			w := tc.w()
			w.Shards = 2
			sh, err := Run(w)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Steps() != sh.Steps() || seq.MessagesSent() != sh.MessagesSent() || seq.MessagesLost() != sh.MessagesLost() {
				t.Fatalf("totals: sequential steps=%d sent=%d lost=%d, sharded steps=%d sent=%d lost=%d",
					seq.Steps(), seq.MessagesSent(), seq.MessagesLost(), sh.Steps(), sh.MessagesSent(), sh.MessagesLost())
			}
			for p := sim.ProcID(0); int(p) < seq.N(); p++ {
				a, aok := seq.LocalTime(p, seq.Horizon)
				b, bok := sh.LocalTime(p, sh.Horizon)
				if aok != bok || math.Float64bits(float64(a)) != math.Float64bits(float64(b)) {
					t.Fatalf("process %d at the horizon: sequential %v (%v), sharded %v (%v)", p, a, aok, b, bok)
				}
			}
		})
	}
}

// TestTimelinePastHorizon pins that a timeline action the run cannot reach
// is a named error rather than an action that silently never fires: one at
// the horizon fires, one 1 µs after it (or at NaN) is refused.
func TestTimelinePastHorizon(t *testing.T) {
	w := func(at clock.Real) Workload {
		return Workload{
			Cfg: core.Config{Params: analysis.Default(7, 2)}, Rounds: 4,
			Timeline: []sim.TimedAction{{At: at, Name: "heal", Do: func(e *sim.Engine) { e.SetChannel(nil) }}},
		}
	}
	res, err := Run(w(0))
	if err != nil {
		t.Fatal(err)
	}
	horizon := res.Horizon
	res, err = Run(w(horizon))
	if err != nil {
		t.Fatalf("action at the horizon: %v", err)
	}
	if n := res.TimelineRemaining(); n != 0 {
		t.Fatalf("action at the horizon: %d unfired", n)
	}
	for _, at := range []clock.Real{horizon + 1e-6, clock.Real(math.NaN())} {
		_, err := Run(w(at))
		if err == nil || !strings.Contains(err.Error(), `timeline action "heal"`) || !strings.Contains(err.Error(), "past the run horizon") {
			t.Errorf("action at %v (horizon %v): err = %v, want the named past-horizon error", at, horizon, err)
		}
	}
}

func TestRunStartOverride(t *testing.T) {
	cfg := core.Config{Params: analysis.Default(4, 1)}
	res, err := Run(Workload{
		Cfg:    cfg,
		Rounds: 5,
		Faults: map[sim.ProcID]func() sim.Process{
			3: func() sim.Process { return silentProc{} },
		},
		StartOverride: map[sim.ProcID]clock.Real{3: 2.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Faulty(3) {
		t.Error("fault override not marked faulty")
	}
}

type silentProc struct{}

func (silentProc) Receive(*sim.Context, sim.Message) {}

// TestAllExperimentsRun smoke-runs every registered experiment and checks
// every bound-verdict cell reports ok where the experiment intends it to.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-sized")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("table %s has no rows", tbl.ID)
				}
				// Bound-check columns must all hold, except in the
				// experiments that demonstrate guarantee loss on purpose
				// (boundary violation, graceful degradation, ablations,
				// partition containment and sharpness).
				if tbl.ID == "E05b" || tbl.ID == "E12" || tbl.ID == "E16" || tbl.ID == "E20b" {
					continue
				}
				for _, row := range tbl.Rows {
					for _, cell := range row {
						if cell == "VIOLATED" {
							t.Errorf("table %s row %v has a violated bound", tbl.ID, row)
						}
					}
				}
			}
		})
	}
}

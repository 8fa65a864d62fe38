package exp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/baselines/hssd"
	"repro/internal/baselines/lm"
	"repro/internal/baselines/marzullo"
	"repro/internal/baselines/ms"
	"repro/internal/baselines/st"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "E08",
		Title:    "Comparison with other algorithms (the §10 table)",
		PaperRef: "§10",
		Run:      runE08,
	})
}

// algorithms returns the §10 contenders as workload process factories plus
// their paper-quoted agreement estimate.
func algorithms(params analysis.Params) []struct {
	name       string
	mk         func(id sim.ProcID, corr clock.Local) sim.Process
	paperAgree float64
	paperNote  string
} {
	wl := core.Config{Params: params}
	lmc := lm.Config{Params: params}
	msc := ms.Config{Params: params}
	stc := st.Config{Params: params}
	hc := hssd.Config{Params: params}
	mzc := marzullo.Config{Params: params}
	return []struct {
		name       string
		mk         func(id sim.ProcID, corr clock.Local) sim.Process
		paperAgree float64
		paperNote  string
	}{
		{"Welch-Lynch (this paper)", func(_ sim.ProcID, c clock.Local) sim.Process { return core.NewProc(wl, c) },
			4 * params.Eps, "≈4ε"},
		{"Lamport/Melliar-Smith CNV", func(_ sim.ProcID, c clock.Local) sim.Process { return lm.New(lmc, c) },
			2 * float64(params.N) * params.Eps, "≈2nε"},
		{"Mahaney/Schneider", func(_ sim.ProcID, c clock.Local) sim.Process { return ms.New(msc, c) },
			2 * float64(params.N) * params.Eps, "(analyzed per-round)"},
		{"Srikanth/Toueg", func(_ sim.ProcID, c clock.Local) sim.Process { return st.New(stc, c) },
			params.Delta + params.Eps, "≈δ+ε"},
		{"HSSD (signatures)", func(_ sim.ProcID, c clock.Local) sim.Process { return hssd.New(hc, c) },
			params.Delta + params.Eps, "≈δ+ε"},
		{"Marzullo intervals", func(_ sim.ProcID, c clock.Local) sim.Process { return marzullo.New(mzc, c) },
			2 * float64(params.N) * params.Eps, "(probabilistic analysis)"},
	}
}

// runE08 measures steady-state agreement, adjustment size and messages per
// round for all six algorithms on the identical substrate, fault-free and
// with f silent faults, reproducing the qualitative comparison of §10:
// WL ≈ 4ε beats ST/HSSD ≈ δ+ε whenever δ > 3ε, and beats CNV ≈ 2nε always.
func runE08() ([]*Table, error) {
	params := analysis.Default(7, 2)
	rounds := 20
	algs := algorithms(params)

	t := &Table{
		ID:       "E08",
		Title:    "Six algorithms, one substrate (n=7, f=2, δ=10ms, ε=1ms, ρ=1e−5, P=1s)",
		PaperRef: "§10",
		Columns:  []string{"algorithm", "paper agreement", "measured (no faults)", "measured (f silent)", "max |ADJ|", "msgs/round"},
	}
	// Two trials per algorithm: fault-free first, then f silent faults. The
	// ordered Each completes one table row per clean/faulty pair.
	type trial struct {
		alg    int
		faulty bool
	}
	var points []trial
	for i := range algs {
		points = append(points, trial{alg: i, faulty: false}, trial{alg: i, faulty: true})
	}
	var cleanSkew, cleanAdj, cleanMsgs float64
	sweep := Sweep[trial]{
		Name:   "E08",
		Params: points,
		Build: func(p trial) (Workload, error) {
			var mix map[sim.ProcID]func() sim.Process
			if p.faulty {
				mix = map[sim.ProcID]func() sim.Process{
					5: func() sim.Process { return faults.Silent{} },
					6: func() sim.Process { return faults.Silent{} },
				}
			}
			return Workload{
				Cfg:      core.Config{Params: params},
				MakeProc: algs[p.alg].mk,
				Faults:   mix,
				Rounds:   rounds,
				Seed:     17,
			}, nil
		},
		Each: func(p trial, _ Workload, res *Result) error {
			if !p.faulty {
				warm := res.Skew.Warmup
				cleanSkew = res.Skew.MaxAfterWarmup()
				cleanAdj = res.Rounds.MaxAbsAdj(warm)
				cleanMsgs = float64(res.MessagesSent()) / float64(rounds)
				return nil
			}
			alg := algs[p.alg]
			t.AddRow(alg.name,
				fmt.Sprintf("%s %s", FmtDur(alg.paperAgree), alg.paperNote),
				FmtDur(cleanSkew), FmtDur(res.Skew.MaxAfterWarmup()),
				FmtDur(cleanAdj), fmt.Sprintf("%.0f", cleanMsgs))
			return nil
		},
	}
	if err := sweep.Run(); err != nil {
		return nil, err
	}
	t.AddNote("shape check: WL ≤ ST/HSSD requires δ > 3ε (here δ=10ε); WL ≪ CNV's 2nε worst case; ST/HSSD relay costs up to 2n² msgs/round under faults")
	return []*Table{t}, nil
}

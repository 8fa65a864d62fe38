package exp

import (
	"errors"
	"math"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "E07",
		Title:    "Reintegration of a repaired process",
		PaperRef: "§9.1",
		Run:      runE07,
	})
}

// runE07 wakes a repaired process with a wildly wrong clock at several
// points within a round and checks that it reaches the next round mark
// within β of every nonfaulty process (the §9.1 claim), then keeps agreeing.
func runE07() ([]*Table, error) {
	cfg := core.Config{Params: analysis.Default(7, 2)}
	t := &Table{
		ID:       "E07",
		Title:    "Rejoined process's offset from the group",
		PaperRef: "§9.1: reaches Tⁱ⁺¹ within β of every nonfaulty process",
		Columns:  []string{"wake time (in round)", "rejoin round", "offset at first broadcast", "≤ β", "offset at end", "≤ γ"},
	}
	// Pointer params: the fault closure built on a worker goroutine stores
	// the trial's rejoiner on its own parameter for Each to inspect.
	type rejoinTrial struct {
		frac float64
		rj   *core.Rejoiner
	}
	sweep := Sweep[*rejoinTrial]{
		Name:   "E07",
		Params: []*rejoinTrial{{frac: 0.1}, {frac: 0.45}, {frac: 0.8}},
		Build: func(p *rejoinTrial) (Workload, error) {
			wake := clock.Real(5.0 + p.frac) // within round ~5
			return Workload{
				Cfg:    cfg,
				Rounds: 20,
				Faults: map[sim.ProcID]func() sim.Process{
					6: func() sim.Process {
						p.rj = core.NewRejoiner(cfg, -77.7)
						return p.rj
					},
				},
				StartOverride: map[sim.ProcID]clock.Real{6: wake},
				Seed:          9,
			}, nil
		},
		Each: func(p *rejoinTrial, _ Workload, res *Result) error {
			if p.rj == nil || !p.rj.Joined() {
				return errors.New("rejoiner never joined")
			}
			offStart, offEnd := rejoinOffsets(res)
			t.AddRow(FmtDur(p.frac), "joined", FmtDur(offStart), Verdict(offStart <= cfg.Beta),
				FmtDur(offEnd), Verdict(offEnd <= cfg.Gamma()))
			return nil
		},
	}
	if err := sweep.Run(); err != nil {
		return nil, err
	}
	t.AddNote("repaired process wakes with its clock 77.7s wrong; β = %s, γ = %s", FmtDur(cfg.Beta), FmtDur(cfg.Gamma()))
	return []*Table{t}, nil
}

// rejoinOffsets returns the rejoiner's max offset from any nonfaulty process
// shortly after it joined and at the end of the run.
func rejoinOffsets(res *Result) (atJoin, atEnd float64) {
	measure := func(t clock.Real) float64 {
		lt, ok := res.LocalTime(6, t)
		if !ok {
			return math.Inf(1)
		}
		worst := 0.0
		for _, p := range res.NonfaultyIDs() {
			o, ok := res.LocalTime(p, t)
			if !ok {
				continue
			}
			if d := math.Abs(float64(lt - o)); d > worst {
				worst = d
			}
		}
		return worst
	}
	// Shortly after joining: two rounds after the wake is safely past the
	// gather + first broadcast.
	return measure(8.5), measure(res.Horizon)
}

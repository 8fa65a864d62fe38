package exp

import "repro/internal/sim"

// timeMajor pins w to the time-major drain, the reference leg of the
// engine differentials: it registers a per-delivery observer, which the
// window does not run (sim.Windowable) and which changes nothing in the
// execution.
func timeMajor(w Workload) Workload {
	w.Observers = append(w.Observers, pinTimeMajor{})
	return w
}

type pinTimeMajor struct{}

func (pinTimeMajor) OnDeliver(*sim.Engine, sim.Message) {}

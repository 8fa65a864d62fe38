package clock

import (
	"fmt"
	"math"
	"math/rand"
)

// DriftSchedule generates ρ-bounded physical clocks. Schedules are the
// workload knob for experiments: a constant fast/slow clock is the worst case
// for validity, while a wandering rate exercises the inductive analysis.
type DriftSchedule interface {
	// Build returns the physical clock for process id out of n. The clock
	// must be ρ-bounded for the schedule's ρ.
	Build(id, n int) Clock
	// Rho returns the drift bound the schedule honors.
	Rho() float64
}

// ConstantDrift assigns each process a fixed rate spread across the ρ-band:
// process 0 runs slowest (1/(1+ρ)), process n−1 fastest (1+ρ), the rest
// evenly in between. InitialOffset lets tests start physical clocks apart.
type ConstantDrift struct {
	RhoBound       float64
	InitialOffsets []Local // optional per-process Ph(0); nil means all zero
}

var _ DriftSchedule = ConstantDrift{}

// Build implements DriftSchedule.
func (d ConstantDrift) Build(id, n int) Clock {
	lo := 1 / (1 + d.RhoBound)
	hi := 1 + d.RhoBound
	frac := 0.5
	if n > 1 {
		frac = float64(id) / float64(n-1)
	}
	rate := lo + float64(frac*(hi-lo))
	var off Local
	if id < len(d.InitialOffsets) {
		off = d.InitialOffsets[id]
	}
	return Linear(off, rate)
}

// Rho implements DriftSchedule.
func (d ConstantDrift) Rho() float64 { return d.RhoBound }

// RandomWalkDrift builds clocks whose rate is re-drawn uniformly from the
// ρ-band every SegmentDur real seconds up to Horizon. Deterministic per seed
// and process id.
type RandomWalkDrift struct {
	RhoBound   float64
	SegmentDur Real
	Horizon    Real
	Seed       int64
	Offsets    []Local // optional per-process Ph at the first breakpoint
}

var _ DriftSchedule = RandomWalkDrift{}

// Build implements DriftSchedule.
func (d RandomWalkDrift) Build(id, n int) Clock {
	rng := rand.New(rand.NewSource(d.Seed*1_000_003 + int64(id)))
	lo := 1 / (1 + d.RhoBound)
	hi := 1 + d.RhoBound
	segDur := d.SegmentDur
	if segDur <= 0 {
		segDur = 1
	}
	horizon := d.Horizon
	if horizon <= 0 {
		horizon = 3600
	}
	nseg := int(math.Ceil(float64(horizon/segDur))) + 1
	bps := make([]Breakpoint, 0, nseg)
	for i := 0; i < nseg; i++ {
		bps = append(bps, Breakpoint{
			Start: Real(i) * segDur,
			Rate:  lo + float64(rng.Float64()*(hi-lo)),
		})
	}
	var off Local
	if id < len(d.Offsets) {
		off = d.Offsets[id]
	}
	c, err := New(off, bps)
	if err != nil {
		// Construction only fails on programmer error (bad breakpoints),
		// which the loop above cannot produce.
		panic(fmt.Sprintf("clock: random walk build: %v", err))
	}
	return c
}

// Rho implements DriftSchedule.
func (d RandomWalkDrift) Rho() float64 { return d.RhoBound }

// AlternatingDrift flips each clock between the slow and fast extreme every
// Period seconds, with odd processes in antiphase. This is the adversarial
// drift pattern: pairwise relative drift is maximal at all times.
type AlternatingDrift struct {
	RhoBound float64
	Period   Real
	Horizon  Real
	Offsets  []Local
}

var _ DriftSchedule = AlternatingDrift{}

// Build implements DriftSchedule.
func (d AlternatingDrift) Build(id, n int) Clock {
	lo := 1 / (1 + d.RhoBound)
	hi := 1 + d.RhoBound
	period := d.Period
	if period <= 0 {
		period = 1
	}
	horizon := d.Horizon
	if horizon <= 0 {
		horizon = 3600
	}
	nseg := int(math.Ceil(float64(horizon/period))) + 1
	bps := make([]Breakpoint, 0, nseg)
	for i := 0; i < nseg; i++ {
		rate := lo
		if (i+id)%2 == 0 {
			rate = hi
		}
		bps = append(bps, Breakpoint{Start: Real(i) * period, Rate: rate})
	}
	var off Local
	if id < len(d.Offsets) {
		off = d.Offsets[id]
	}
	c, err := New(off, bps)
	if err != nil {
		panic(fmt.Sprintf("clock: alternating build: %v", err))
	}
	return c
}

// Rho implements DriftSchedule.
func (d AlternatingDrift) Rho() float64 { return d.RhoBound }

// SpreadOffsets returns n initial offsets evenly spread over [0, width] —
// the standard way experiments realize assumption A4 (initial logical clocks
// within β) or violate it (width ≫ β for startup experiments).
func SpreadOffsets(n int, width Local) []Local {
	offs := make([]Local, n)
	if n <= 1 {
		return offs
	}
	for i := range offs {
		offs[i] = width * Local(i) / Local(n-1)
	}
	return offs
}

// RandomOffsets returns n offsets drawn uniformly from [0, width), seeded.
func RandomOffsets(n int, width Local, seed int64) []Local {
	rng := rand.New(rand.NewSource(seed))
	offs := make([]Local, n)
	for i := range offs {
		offs[i] = Local(rng.Float64()) * width
	}
	return offs
}

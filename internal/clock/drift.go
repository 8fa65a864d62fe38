package clock

import (
	"math"
	"math/rand"
	"sync"
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

	// pieces returns how many linear pieces each clock of n has.
	pieces(n int) int
	// rates writes the start and rate of each of process id's pieces into
	// segs, len(segs) = pieces(n), and returns the clock's reading at the
	// first start.
	rates(id, n int, segs []segment) Local
}

// Clocks builds the physical clocks of processes 0 … n−1 from d: the n
// clocks in one []PiecewiseLinear and all their pieces in one []segment,
// so a run's clocks are three allocations whatever n is.
func Clocks(d DriftSchedule, n int) []Clock {
	cs := build(d, 0, n, n)
	clocks := make([]Clock, n)
	for i := range clocks {
		clocks[i] = &cs[i]
	}
	return clocks
}

// build makes the clocks of processes lo … hi−1 of n from d, in one
// []PiecewiseLinear over one []segment: the one way every schedule's
// clocks are made, Clocks and each Build alike.
func build(d DriftSchedule, lo, hi, n int) []PiecewiseLinear {
	k := d.pieces(n)
	cs := make([]PiecewiseLinear, hi-lo)
	segs := make([]segment, len(cs)*k)
	for i := range cs {
		s := segs[i*k : (i+1)*k : (i+1)*k]
		settle(s, d.rates(lo+i, n, s))
		cs[i].segs = s
	}
	return cs
}

// offsetOf returns offs[id], or 0 past the end of offs.
func offsetOf(offs []Local, id int) Local {
	if id < len(offs) {
		return offs[id]
	}
	return 0
}

// steps returns the piece length (1 when dur ≤ 0) and the number of pieces
// that cover [0, horizon] (3600 s when horizon ≤ 0) of a schedule that
// changes rate every dur seconds.
func steps(dur, horizon Real) (Real, int) {
	if dur <= 0 {
		dur = 1
	}
	if horizon <= 0 {
		horizon = 3600
	}
	return dur, int(math.Ceil(float64(horizon/dur))) + 1
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
func (d ConstantDrift) Build(id, n int) Clock { return &build(d, id, id+1, n)[0] }

// Rho implements DriftSchedule.
func (d ConstantDrift) Rho() float64 { return d.RhoBound }

func (d ConstantDrift) pieces(int) int { return 1 }

func (d ConstantDrift) rates(id, n int, segs []segment) Local {
	lo := 1 / (1 + d.RhoBound)
	hi := 1 + d.RhoBound
	frac := 0.5
	if n > 1 {
		frac = float64(id) / float64(n-1)
	}
	segs[0] = segment{rate: lo + float64(frac*(hi-lo))}
	return offsetOf(d.InitialOffsets, id)
}

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
func (d RandomWalkDrift) Build(id, n int) Clock { return &build(d, id, id+1, n)[0] }

// Rho implements DriftSchedule.
func (d RandomWalkDrift) Rho() float64 { return d.RhoBound }

func (d RandomWalkDrift) pieces(int) int {
	_, k := steps(d.SegmentDur, d.Horizon)
	return k
}

// walkRNGs holds the generators random walks draw from: Seed resets one
// fully, so a clock's draws are those of a fresh source with its seed, and
// a run of n clocks makes no generator per clock.
var walkRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

func (d RandomWalkDrift) rates(id, _ int, segs []segment) Local {
	rng := walkRNGs.Get().(*rand.Rand)
	defer walkRNGs.Put(rng)
	rng.Seed(d.Seed*1_000_003 + int64(id))
	lo := 1 / (1 + d.RhoBound)
	hi := 1 + d.RhoBound
	dur, _ := steps(d.SegmentDur, d.Horizon)
	for i := range segs {
		segs[i] = segment{start: Real(i) * dur, rate: lo + float64(rng.Float64()*(hi-lo))}
	}
	return offsetOf(d.Offsets, id)
}

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
func (d AlternatingDrift) Build(id, n int) Clock { return &build(d, id, id+1, n)[0] }

// Rho implements DriftSchedule.
func (d AlternatingDrift) Rho() float64 { return d.RhoBound }

func (d AlternatingDrift) pieces(int) int {
	_, k := steps(d.Period, d.Horizon)
	return k
}

func (d AlternatingDrift) rates(id, _ int, segs []segment) Local {
	lo := 1 / (1 + d.RhoBound)
	hi := 1 + d.RhoBound
	period, _ := steps(d.Period, d.Horizon)
	for i := range segs {
		rate := lo
		if (i+id)%2 == 0 {
			rate = hi
		}
		segs[i] = segment{start: Real(i) * period, rate: rate}
	}
	return offsetOf(d.Offsets, id)
}

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

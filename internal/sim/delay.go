package sim

import "repro/internal/clock"

// DelayModel realizes assumption A3: every message delay lies in [δ−ε, δ+ε].
// Implementations must be deterministic given the rng stream so runs are
// reproducible.
type DelayModel interface {
	// Sample returns the delay for one message copy. rng is the engine's
	// allocation-free splitmix64 stream; models that need randomness draw
	// from it, others ignore it.
	Sample(from, to ProcID, at clock.Real, rng *RNG) float64
	// Bounds returns (δ, ε).
	Bounds() (delta, eps float64)
}

// BatchDelayModel is the sampling fast path of a fan-out: SampleAll fills
// out[q] with the delay of copy q for q = 0..n−1, exactly the values n
// successive Sample(from, to, …) calls would return for any n recipients —
// same rng draws, same order — with one call instead of n. A batched
// model's delay does not depend on the copy's recipient, so the engine may
// batch any contiguous run of copies: a time-major broadcast's n, and a
// window's redraw of a drawn row's tile (Engine.times). Models that don't
// implement it are sampled per copy, with identical results
// (simtest.CheckDelayModel holds a model to both).
//
// UniformDelay alone implements it. Its send-side batch no longer serves a
// windowed run, which draws nothing at send (CounterDelayModel); its redraw
// does: 10 interleaved pairs of the
// repository benchmark on a 2-core host took flat_n1009_k2 from a median
// 147.2 ms an op [quartiles 143.4–152.3] redrawing a tile one Sample a copy
// to 135.4 ms [132.2–137.2] with one SampleAll, faster in all 10. The other
// models' copies would only loop over Sample or fill in a constant, which
// the engine's per-copy loop does as well.
type BatchDelayModel interface {
	DelayModel
	SampleAll(from ProcID, n int, at clock.Real, rng *RNG, out []float64)
}

// CounterDelayModel is the opt-in of a windowed engine's drawn rows. Its
// Sample draws exactly DrawsPerCopy values from rng for every copy, whatever
// the copy, and depends on nothing else that changes during a run: on
// (from, to, at) and those draws alone. The stream is a counter generator
// (rng.go), so the delay of copy j of a fan-out over [lo, hi) is then a
// function of the sender's stream state s₀ before the fan-out: Sample again,
// on a copy of the stream seeked to s₀ + (j−lo)·DrawsPerCopy draws, returns
// it bit for bit. Span declares, for a fan-out from from over [lo, hi) sent
// at at, a closed range [min, max] holding every copy's delay — formed in
// the float arithmetic Sample uses, so that float64(at + clock.Real(d)) of
// every copy d lies in [at + min, at + max].
//
// A partition keeps such a fan-out as a drawn row — s₀ and the range, no
// delivery times — and posts it in O(1): it skips the sender's stream by
// m·DrawsPerCopy draws, counts the m copies sent, and takes the row's
// extremes from Span, which must be a finite range at or after the send
// (Run fails by name otherwise). A gather redraws the times of the copies it
// reads and routes them through the channel as fanOut would, a lost copy
// lost there, and counted lost on the row's first read; Sample may then run
// for a copy on any partition's goroutine, later, possibly at once with
// other partitions' calls. Nothing checks the declaration at send: on a
// row's first read every redrawn time is compared with its extremes and
// with the lookahead, and one outside them fails Run at the cut that finds
// it (the least (at, key) such copy, the same error for every partition
// count), as does one found when Run reaches its horizon, where the rows no
// window has read yet are read once. A wrong declaration is an error,
// never a dropped or reordered copy; simtest.CheckDelayModel holds a model
// to its declaration. A model that does not implement this interface gets
// stored rows: its times, 8 bytes a copy.
type CounterDelayModel interface {
	DelayModel
	// DrawsPerCopy returns how many rng values Sample draws per copy: 0 for
	// a model that ignores rng.
	DrawsPerCopy() int
	// Span returns the range [min, max] of the delays Sample returns for the
	// copies from from to lo … hi−1 sent at at.
	Span(from, lo, hi ProcID, at clock.Real) (min, max float64)
}

// MaxFloat64Draw is the largest value RNG.Float64 returns, 1 − 2⁻⁵³.
const MaxFloat64Draw = float64(1<<53-1) / (1 << 53)

// UniformSpan returns the span of δ−ε + 2ε·u over every Float64 draw u,
// formed as UniformDelay.Sample forms a delay: rounding is monotone, so
// u = 0 and u = MaxFloat64Draw give its ends.
func UniformSpan(delta, eps float64) (float64, float64) {
	return delta - eps, delta - eps + float64(2*eps*MaxFloat64Draw)
}

// ConstantDelay delivers every message in exactly δ (ε = 0) — the idealized
// network in which the algorithm's estimator ARR−(T+δ) is exact.
type ConstantDelay struct {
	Delta float64
}

var _ CounterDelayModel = ConstantDelay{}

// DrawsPerCopy implements CounterDelayModel: none.
func (ConstantDelay) DrawsPerCopy() int { return 0 }

// Span implements CounterDelayModel: δ.
func (d ConstantDelay) Span(_, _, _ ProcID, _ clock.Real) (float64, float64) { return d.Delta, d.Delta }

// Sample implements DelayModel.
func (d ConstantDelay) Sample(_, _ ProcID, _ clock.Real, _ *RNG) float64 { return d.Delta }

// Bounds implements DelayModel.
func (d ConstantDelay) Bounds() (float64, float64) { return d.Delta, 0 }

// UniformDelay draws each delay uniformly from [δ−ε, δ+ε], the standard
// benign model.
type UniformDelay struct {
	Delta float64
	Eps   float64
}

var (
	_ BatchDelayModel   = UniformDelay{}
	_ CounterDelayModel = UniformDelay{}
)

// DrawsPerCopy implements CounterDelayModel: one Float64 a copy.
func (UniformDelay) DrawsPerCopy() int { return 1 }

// Span implements CounterDelayModel: the band, UniformSpan.
func (d UniformDelay) Span(_, _, _ ProcID, _ clock.Real) (float64, float64) {
	return UniformSpan(d.Delta, d.Eps)
}

// Sample implements DelayModel.
func (d UniformDelay) Sample(_, _ ProcID, _ clock.Real, rng *RNG) float64 {
	return d.Delta - d.Eps + float64(2*d.Eps*rng.Float64())
}

// SampleAll implements BatchDelayModel: n draws from the same stream in the
// same order as n Sample calls, without the per-copy interface dispatch.
func (d UniformDelay) SampleAll(_ ProcID, n int, _ clock.Real, rng *RNG, out []float64) {
	lo, span := d.Delta-d.Eps, 2*d.Eps
	for q := 0; q < n; q++ {
		out[q] = lo + float64(span*rng.Float64())
	}
}

// Bounds implements DelayModel.
func (d UniformDelay) Bounds() (float64, float64) { return d.Delta, d.Eps }

// ExtremalDelay is the adversarial network: every delay is pinned to one end
// of the band depending on the recipient, which maximizes the error of the
// arrival-time estimator (the ±ε term of Lemma 5). With SlowTo selecting
// half the processes, it drives executions toward the 4ε skew floor.
type ExtremalDelay struct {
	Delta float64
	Eps   float64
	// SlowTo reports whether messages *to* q take δ+ε (otherwise δ−ε).
	// A nil SlowTo slows the upper half of the id space.
	SlowTo func(from, to ProcID) bool
}

var _ CounterDelayModel = ExtremalDelay{}

// DrawsPerCopy implements CounterDelayModel: none (SlowTo must be a pure
// function of its link).
func (ExtremalDelay) DrawsPerCopy() int { return 0 }

// Span implements CounterDelayModel: both ends of the band.
func (d ExtremalDelay) Span(_, _, _ ProcID, _ clock.Real) (float64, float64) {
	return d.Delta - d.Eps, d.Delta + d.Eps
}

// Sample implements DelayModel.
func (d ExtremalDelay) Sample(from, to ProcID, _ clock.Real, _ *RNG) float64 {
	slow := false
	if d.SlowTo != nil {
		slow = d.SlowTo(from, to)
	} else {
		slow = int(to)%2 == 1
	}
	if slow {
		return d.Delta + d.Eps
	}
	return d.Delta - d.Eps
}

// Bounds implements DelayModel.
func (d ExtremalDelay) Bounds() (float64, float64) { return d.Delta, d.Eps }

// PerLinkDelay gives each ordered link (p,q) a fixed delay in [δ−ε, δ+ε],
// deterministically derived from the seed — a network with stable asymmetric
// latencies, the hardest benign case for validity.
type PerLinkDelay struct {
	Delta float64
	Eps   float64
	Seed  int64
}

var _ CounterDelayModel = PerLinkDelay{}

// DrawsPerCopy implements CounterDelayModel: none, the delay is the link's.
func (PerLinkDelay) DrawsPerCopy() int { return 0 }

// Span implements CounterDelayModel: the band, over the fractions
// 0 … 1 − 2⁻⁵² a link's hash gives.
func (d PerLinkDelay) Span(_, _, _ ProcID, _ clock.Real) (float64, float64) {
	const top = float64(1<<52-1) / (1 << 52)
	return d.Delta - d.Eps, d.Delta - d.Eps + float64(2*d.Eps*top)
}

// Sample implements DelayModel.
func (d PerLinkDelay) Sample(from, to ProcID, _ clock.Real, _ *RNG) float64 {
	h := uint64(d.Seed)*0x9E3779B97F4A7C15 + uint64(from)*0xBF58476D1CE4E5B9 + uint64(to)*0x94D049BB133111EB
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 29
	frac := float64(h%(1<<52)) / float64(uint64(1)<<52)
	return d.Delta - d.Eps + float64(2*d.Eps*frac)
}

// Bounds implements DelayModel.
func (d PerLinkDelay) Bounds() (float64, float64) { return d.Delta, d.Eps }

// CenterDelay declares the full [δ−ε, δ+ε] uncertainty band of assumption
// A3 but samples every delay at the band center δ. It is the substrate of
// the lower-bound experiments (E18): the ε-freedom belongs entirely to the
// adaptive adversary's retiming rather than to ambient sampling noise, so
// any skew beyond the drift floor is attributable to deliberate retiming
// inside the window — exactly the adversary of the shifting argument.
type CenterDelay struct {
	Delta float64
	Eps   float64
}

var _ CounterDelayModel = CenterDelay{}

// DrawsPerCopy implements CounterDelayModel: none.
func (CenterDelay) DrawsPerCopy() int { return 0 }

// Span implements CounterDelayModel: δ, where every delay is sampled.
func (d CenterDelay) Span(_, _, _ ProcID, _ clock.Real) (float64, float64) { return d.Delta, d.Delta }

// Sample implements DelayModel.
func (d CenterDelay) Sample(_, _ ProcID, _ clock.Real, _ *RNG) float64 { return d.Delta }

// Bounds implements DelayModel.
func (d CenterDelay) Bounds() (float64, float64) { return d.Delta, d.Eps }

// FullMesh is the reliable fully connected channel: every copy is delivered
// at sentAt + delay. It is the default, and the engine's send path
// recognizes it and routes inline, with no Route call per copy.
type FullMesh struct{}

// Route implements Channel.
func (FullMesh) Route(_, _ ProcID, sentAt clock.Real, baseDelay float64) (clock.Real, bool) {
	return sentAt + clock.Real(baseDelay), true
}

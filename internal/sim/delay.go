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

// BatchDelayModel is the broadcast fan-out fast path: SampleAll fills
// out[q] with the delay of the copy to process q for q = 0..n−1, exactly
// the values n successive Sample(from, q, …) calls would return — same rng
// draws, same fixed pid order — but with one call for the whole fan-out.
// Models that don't implement it are sampled per copy by the engine, with
// identical results.
//
// UniformDelay alone implements it, the one model where a workload measures
// a benefit: in 8 interleaved pairs of the repository benchmark on a 2-core
// host, flat_n1009_k2 took a median 218.9 ms an op [quartiles 211.4–231.5]
// with the batch and 241.4 ms [227.6–274.1] sampling per copy, slower in 7
// of the 8. The other models' copies would only loop over Sample or fill in
// a constant, which the engine's per-copy loop does as well.
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
// it bit for bit.
//
// A partition stores such a fan-out as a drawn row — s₀, the range and the
// exact extremes, no delivery times — unless a copy was refused (a delivery
// time not finite or before the send), and its gather redraws the times of
// the copies it reads, from its tile's first copy on, and routes them
// through the channel as fanOut did, a lost copy again lost. Sample may then
// run again for a copy on any partition's goroutine, later, possibly at once
// with other partitions' calls. fanOut checks, once per fan-out, that
// sampling advanced the stream by exactly m·DrawsPerCopy draws; a model that
// drew otherwise gets a stored row holding the m times, as does every
// fan-out of a model that does not implement this interface. So a wrong
// declaration cannot change an execution, only its memory: a stored row
// costs 8 bytes a copy, a drawn row none.
type CounterDelayModel interface {
	DelayModel
	// DrawsPerCopy returns how many rng values Sample draws per copy: 0 for
	// a model that ignores rng.
	DrawsPerCopy() int
}

// ConstantDelay delivers every message in exactly δ (ε = 0) — the idealized
// network in which the algorithm's estimator ARR−(T+δ) is exact.
type ConstantDelay struct {
	Delta float64
}

var _ CounterDelayModel = ConstantDelay{}

// DrawsPerCopy implements CounterDelayModel: none.
func (ConstantDelay) DrawsPerCopy() int { return 0 }

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

package sim

// RNG is the engine's allocation-free random stream: a splitmix64 generator
// (Steele, Lea & Flood; the same mixer the sweep runner's DeriveSeed uses for
// per-trial seeds). It replaces the math/rand.Rand the engine used to carry
// for delay sampling — a concrete value type the compiler can keep in
// registers, with no interface indirection per draw and no heap state beyond
// the engine itself.
//
// The stream is deterministic in the seed, so a fixed-seed run replays
// byte-identically regardless of worker count or host.
type RNG struct {
	state uint64
}

// gamma is splitmix64's increment γ (the odd integer nearest 2⁶⁴/φ): the
// state after j draws from s₀ is s₀ + j·γ, and draw j is mix64(s₀ + (j+1)·γ).
// So the generator is a counter — any draw is reachable in one step (skip) —
// which lets a windowed engine keep a fan-out as its sender's state and
// redraw its delays (CounterDelayModel).
const gamma = 0x9e3779b97f4a7c15

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) RNG { return RNG{state: uint64(seed)} }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return mix64(r.state)
}

// skip returns the stream j draws past r, without drawing them.
func (r RNG) skip(j uint64) RNG { return RNG{state: r.state + j*gamma} }

// RNGDrawing returns the stream whose next Uint64 is v: mix64 is a
// bijection, so exactly one state draws v next. It lets a test place a draw
// at either end of its range (simtest.CheckDelayModel).
func RNGDrawing(v uint64) RNG { return RNG{state: unmix64(v) - gamma} }

// Int63 returns a non-negative random int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1) with full 53-bit resolution.
func (r *RNG) Float64() float64 { return float64(r.Uint64()>>11) * (1.0 / (1 << 53)) }

// Intn returns a uniform int in [0, n). It panics if n <= 0. (The modulo
// bias is below 2⁻⁵² for any n a simulation plausibly passes; delay models
// and fault strategies draw at most thousands of values per run.)
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// mix64 is the splitmix64 finalizer: a bijective avalanche of all 64 bits.
// The same published constants appear in runner.DeriveSeed (kept separate so
// the generic worker pool does not import the simulator); procSeedTag above
// keeps the streams disjoint either way.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// unmix64 is mix64's inverse: each xorshift undone by reapplying it until
// the shifted-in bits run out, each product by the multiplier's inverse mod
// 2⁶⁴.
func unmix64(z uint64) uint64 {
	z ^= z>>31 ^ z>>62
	z *= 0x319642b2d24d8ec3
	z ^= z>>27 ^ z>>54
	z *= 0x96de1b173f119089
	z ^= z>>30 ^ z>>60
	return z
}

// procSeedTag domain-separates Context.Rand seeding from every other
// splitmix64 consumer: without it, procSeed(seed, pid) would be bit-for-bit
// identical to the sweep runner's DeriveSeed(seed, pid).
const procSeedTag = 0xd1b54a32d192ed03

// procSeed derives the per-process Context.Rand seed from the engine seed.
// Streams depend only on (seed, pid) — never on step counts or scheduling —
// so per-process randomness is reproducible and well separated across
// processes, the delay streams, and per-trial sweep seeds.
func procSeed(seed int64, pid ProcID) int64 {
	return int64(mix64((uint64(seed) ^ procSeedTag) + gamma*uint64(pid+1)))
}

// senderSeedTag domain-separates the per-sender delay streams from
// Context.Rand streams and every other splitmix64 consumer.
const senderSeedTag = 0x9e6c63d0876a9a47

// senderSeed derives a sender's delay-sampling seed. Keying the stream on
// (seed, sender) makes every sender's delay draws a function of its own send
// history only, so delays are independent of how processes are partitioned
// into shards — the sequential engine is the one-shard case — and of window
// interleaving.
func senderSeed(seed int64, pid ProcID) int64 {
	return int64(mix64((uint64(seed) ^ senderSeedTag) + gamma*uint64(pid+1)))
}

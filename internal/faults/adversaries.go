package faults

import (
	"math"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sim"
)

// This file holds the adversaries built for the conformance harness: a
// colluding clique, an edge-rider, a drift-maximizer, a crash/recover loop,
// and an RNG-driven random-timing attacker. Like the original behaviors in
// faults.go they influence nonfaulty state only through arrival times, which
// is the entire attack surface the algorithm exposes (§2.1, Lemma 6).

// cliquePlan is the state shared by a colluding clique: one plan per round,
// drawn from a common RNG stream by whichever member reaches the round
// first, so all f faulty arrival entries move through reduce_f together —
// strictly harder to discard than f independently-timed attackers.
type cliquePlan struct {
	rng     sim.RNG
	planned int     // rounds planned so far
	jitter  float64 // current round's common intensity scale
}

// advance draws round r's plan if nobody has yet.
func (c *cliquePlan) advance(r int) {
	for c.planned <= r {
		c.jitter = 0.75 + float64(0.25*c.rng.Float64())
		c.planned++
	}
}

// CliqueTuning parameterizes a colluding clique. The zero value derives
// everything from the algorithm config and seed.
type CliqueTuning struct {
	// Lead and Lag are the local-time offsets applied to the early and late
	// recipient groups; zero means β+ε, the strongest pull that still lands
	// inside every honest collection window.
	Lead, Lag float64
	// EarlyTo selects the recipients pulled early; nil draws a persistent
	// random pivot split from the seed (the same split for every member —
	// that persistence is what makes the clique's pull accumulate).
	EarlyTo func(to sim.ProcID) bool
}

// cliqueMember is one colluding process; all members of a clique share one
// plan.
type cliqueMember struct {
	cfg   core.Config
	lead  float64
	lag   float64
	early func(to sim.ProcID) bool
	plan  *cliquePlan
	timedSends
}

var _ sim.Process = (*cliqueMember)(nil)

// NewClique builds `members` colluding processes. See CliqueTuning for the
// knobs; the default clique pushes a random persistent split of the
// recipients apart at intensity β+ε with a shared per-round jitter.
func NewClique(cfg core.Config, members int, seed int64, tune CliqueTuning) []sim.Process {
	plan := &cliquePlan{rng: sim.NewRNG(seed)}
	lead, lag := orDefault(tune.Lead, cfg.Beta+cfg.Eps), orDefault(tune.Lag, cfg.Beta+cfg.Eps)
	early := tune.EarlyTo
	if early == nil {
		// Persistent random split: recipients below a random pivot are
		// pulled early, the rest late, all rounds, all members.
		pivot := 1 + plan.rng.Intn(cfg.N-1)
		early = func(to sim.ProcID) bool { return int(to) < pivot }
	}
	out := make([]sim.Process, members)
	for i := range out {
		out[i] = &cliqueMember{cfg: cfg, lead: lead, lag: lag, early: early, plan: plan}
	}
	return out
}

// Receive implements sim.Process.
func (c *cliqueMember) Receive(ctx *sim.Context, m sim.Message) { c.receive(ctx, m, &c.cfg, c) }

func (c *cliqueMember) begin(round int, mark clock.Local) any {
	c.plan.advance(round)
	return c.tmsg(round, mark)
}

func (c *cliqueMember) offset(q sim.ProcID, _ int) float64 {
	if c.early(q) {
		return -c.lead * c.plan.jitter
	}
	return c.lag * c.plan.jitter
}

func (c *cliqueMember) wake(next float64) float64 { return next - c.lead - 1e-9 }

// EdgeRider pins every arrival to an edge of the recipient's collection
// window: even-id recipients get the earliest-believable copy, odd-id
// recipients the latest-believable one — the process-side analogue of the
// ExtremalDelay network, riding the δ±ε envelope from the sender's seat.
type EdgeRider struct {
	Cfg core.Config
	// Lead and Lag are the local-time offsets to the two edges; zero means
	// β+ε, the extreme that still lands inside every honest window.
	Lead, Lag float64

	timedSends
}

var _ sim.Process = (*EdgeRider)(nil)

// Receive implements sim.Process.
func (r *EdgeRider) Receive(ctx *sim.Context, m sim.Message) { r.receive(ctx, m, &r.Cfg, r) }

func (r *EdgeRider) begin(round int, mark clock.Local) any { return r.tmsg(round, mark) }

func (r *EdgeRider) offset(q sim.ProcID, _ int) float64 {
	if q%2 == 0 {
		return -orDefault(r.Lead, r.Cfg.Beta+r.Cfg.Eps)
	}
	return orDefault(r.Lag, r.Cfg.Beta+r.Cfg.Eps)
}

func (r *EdgeRider) wake(next float64) float64 {
	return next - orDefault(r.Lead, r.Cfg.Beta+r.Cfg.Eps) - 1e-9
}

// orDefault returns v, or def when v is zero.
func orDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// DriftMax follows the honest round schedule but pretends its physical clock
// drifts at Rate, far beyond the ρ bound honest clocks obey (A1): round i's
// broadcast happens at mark + i·Rate·P, dragging its arrivals steadily
// across — and eventually beyond — the honest collection windows.
type DriftMax struct {
	Cfg core.Config
	// Rate is the virtual drift rate; zero means 2e-3 (two hundred times
	// the experiments' ρ = 1e-5), which leaves every honest window within
	// a dozen rounds.
	Rate float64

	round int
}

var _ sim.Process = (*DriftMax)(nil)

// Receive implements sim.Process.
func (d *DriftMax) Receive(ctx *sim.Context, m sim.Message) {
	if m.Kind != sim.KindStart && m.Kind != sim.KindTimer {
		return
	}
	rate := orDefault(d.Rate, 2e-3)
	mark := d.Cfg.T0 + float64(float64(d.round)*d.Cfg.P)
	ctx.Broadcast(core.TMsg{Mark: clock.Local(mark)})
	d.round++
	// Next round's broadcast at the virtually-drifted mark.
	next := d.Cfg.T0 + float64(float64(d.round)*d.Cfg.P*(1+rate))
	ctx.SetTimer(clock.Local(next), nil)
}

// FlakyRejoin loops through crash and recovery: AliveRounds rounds of honest
// round-mark broadcasts, DeadRounds rounds of silence, then a rejoin that
// replays the stale mark of its last alive round alongside the current one —
// a process that keeps crashing and coming back with old state.
type FlakyRejoin struct {
	Cfg core.Config
	// AliveRounds and DeadRounds set the duty cycle; zero means 2 each.
	AliveRounds, DeadRounds int

	round int
}

var _ sim.Process = (*FlakyRejoin)(nil)

// Receive implements sim.Process.
func (f *FlakyRejoin) Receive(ctx *sim.Context, m sim.Message) {
	if m.Kind != sim.KindStart && m.Kind != sim.KindTimer {
		return
	}
	alive, dead := f.AliveRounds, f.DeadRounds
	if alive <= 0 {
		alive = 2
	}
	if dead <= 0 {
		dead = 2
	}
	phase := f.round % (alive + dead)
	mark := f.Cfg.T0 + float64(float64(f.round)*f.Cfg.P)
	if phase < alive {
		if phase == 0 && f.round > 0 {
			// Rejoin storm: replay the mark it was broadcasting before the
			// crash, then the current one.
			stale := mark - float64(float64(dead+1)*f.Cfg.P)
			ctx.Broadcast(core.TMsg{Mark: clock.Local(stale)})
		}
		ctx.Broadcast(core.TMsg{Mark: clock.Local(mark)})
	}
	f.round++
	ctx.SetTimer(clock.Local(f.Cfg.T0+float64(float64(f.round)*f.Cfg.P)), nil)
}

// RandomTiming is the RNG-driven adversary: each round it draws, per
// recipient, an independent send offset Bias ± Spread around the round mark
// from its own sim.RNG stream. The fuzzing harness drives Spread, Bias and
// the seed to search the timing space mechanically; with parameters inside a
// round the theorem must hold for every draw.
type RandomTiming struct {
	cfg    core.Config
	spread float64
	bias   float64
	rng    sim.RNG
	timedSends
}

var _ sim.Process = (*RandomTiming)(nil)

// NewRandomTiming builds a random-timing adversary. Spread and |bias| are
// clamped to P/4 so the schedule always stays inside the neighboring rounds
// and the adversary keeps acting for the whole execution; any float inputs —
// including a fuzzer's — yield a valid automaton.
func NewRandomTiming(cfg core.Config, seed int64, spread, bias float64) *RandomTiming {
	limit := cfg.P / 4
	spread = clampAbs(spread, limit)
	if spread < 0 {
		spread = -spread
	}
	bias = clampAbs(bias, limit)
	return &RandomTiming{cfg: cfg, spread: spread, bias: bias, rng: sim.NewRNG(seed)}
}

func clampAbs(v, limit float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	if v > limit {
		return limit
	}
	if v < -limit {
		return -limit
	}
	return v
}

// Receive implements sim.Process.
func (r *RandomTiming) Receive(ctx *sim.Context, m sim.Message) { r.receive(ctx, m, &r.cfg, r) }

func (r *RandomTiming) begin(round int, mark clock.Local) any { return r.tmsg(round, mark) }

func (r *RandomTiming) offset(sim.ProcID, int) float64 {
	u := float64(r.rng.Float64()) // Float64 inlines as a product: round it here
	return r.bias + float64((float64(2*u)-1)*r.spread)
}

func (r *RandomTiming) wake(next float64) float64 { return next - r.spread + r.bias - 1e-9 }

package core

import (
	"math"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Rejoiner implements §9.1: a repaired process that synchronizes its clock
// with the running system and then joins the main algorithm.
//
// The process awakens at an arbitrary time (its START delivery), possibly in
// the middle of a round, with an arbitrary CORR. As soon as it awakens it
// begins collecting Tⁱ messages *for all plausible values of Tⁱ* (§9.1),
// grouping arrivals by the round mark they carry. It must identify a round
// it observed from the beginning; since it may have awakened mid-round, a
// group whose first arrival is too close to the wake-up instant is discarded
// as possibly partial (the paper's "allowing part of a round to pass" to
// orient). For a fully observed group, it waits (1+ρ)(β+2ε) on its own clock
// after the group's first arrival — long enough to have heard every
// nonfaulty process — then performs the same fault-tolerant averaging as the
// main algorithm:
//
//	ADJ = Tⁱ + δ − mid(reduce_f(ARR)),  CORR += ADJ.
//
// The arbitrary initial clock cancels in the subtraction (§9.1's first
// observation), so the new clock reaches Tⁱ⁺¹ within β of every nonfaulty
// process, at which point the process rejoins the main algorithm and begins
// broadcasting again. Groups gathered for Byzantine-invented marks never
// reach n−f arrivals and are discarded at their deadlines.
//
// Until it rejoins, the process sends nothing; it is counted as one of the f
// faulty processes, which the others already tolerate.
type Rejoiner struct {
	cfg  Config
	corr clock.Local

	awake     bool
	wakeLocal clock.Local
	groups    map[clock.Local]*gatherGroup
	inner     *Proc // the main algorithm, once synchronized
}

// gatherGroup accumulates arrivals of one round mark's messages: a Round
// held at that mark.
type gatherGroup struct {
	rd         Round
	firstLocal clock.Local
	count      int
}

// rejoinDeadline is the timer payload closing a group's gather window.
type rejoinDeadline struct {
	mark clock.Local
}

var (
	_ sim.Process    = (*Rejoiner)(nil)
	_ sim.CorrHolder = (*Rejoiner)(nil)
)

// NewRejoiner builds a reintegrating process. initialCorr is arbitrary (the
// repaired process's clock is unsynchronized).
func NewRejoiner(cfg Config, initialCorr clock.Local) *Rejoiner {
	return &Rejoiner{
		cfg:    cfg.withDefaults(),
		corr:   initialCorr,
		groups: make(map[clock.Local]*gatherGroup),
	}
}

// Corr implements sim.CorrHolder.
func (r *Rejoiner) Corr() clock.Local {
	if r.inner != nil {
		return r.inner.Corr()
	}
	return r.corr
}

// Joined reports whether the process has completed reintegration.
func (r *Rejoiner) Joined() bool { return r.inner != nil }

// Receive implements sim.Process.
func (r *Rejoiner) Receive(ctx *sim.Context, m sim.Message) {
	if r.inner != nil {
		r.inner.Receive(ctx, m)
		return
	}
	switch m.Kind {
	case sim.KindStart:
		r.awake = true
		r.wakeLocal = r.local(ctx)
	case sim.KindOrdinary:
		if r.awake {
			r.gather(ctx, m)
		}
	case sim.KindTimer:
		if d, ok := m.Payload.(rejoinDeadline); ok {
			r.closeGroup(ctx, d.mark)
		}
	}
}

func (r *Rejoiner) local(ctx *sim.Context) clock.Local { return ctx.PhysNow() + r.corr }

// gatherWait is the local-time length of a group's collection window: all
// nonfaulty Tⁱ messages arrive within β+2ε real time of the first one
// (senders within β, delays within ±ε), stretched by drift and by the
// staggered-broadcast tail when σ > 0.
func (r *Rejoiner) gatherWait() clock.Local {
	return clock.Local((1 + r.cfg.Rho) * (r.cfg.Beta + float64(2*r.cfg.Eps) + float64(float64(r.cfg.N)*r.cfg.Stagger)))
}

func (r *Rejoiner) gather(ctx *sim.Context, m sim.Message) {
	tm, ok := m.Payload.(TMsg)
	if !ok {
		return
	}
	g := r.groups[tm.Mark]
	if g == nil {
		g = &gatherGroup{rd: NewRound(r.cfg.Params, r.cfg.Averager), firstLocal: r.local(ctx)}
		g.rd.t = tm.Mark
		r.groups[tm.Mark] = g
		ctx.SetTimer(g.firstLocal+r.gatherWait()-r.corr, rejoinDeadline{mark: tm.Mark})
	}
	if math.IsInf(g.rd.arr[m.From], -1) {
		g.count++
	}
	g.rd.Record(int(m.From), float64(r.local(ctx))-float64(r.cfg.Stagger*float64(m.From)))
}

func (r *Rejoiner) closeGroup(ctx *sim.Context, mark clock.Local) {
	g := r.groups[mark]
	if g == nil || r.inner != nil {
		return
	}
	delete(r.groups, mark)
	// A group that began too soon after wake-up may be partially observed:
	// we could have slept through its earlier arrivals.
	if g.firstLocal-r.wakeLocal <= r.gatherWait() {
		return
	}
	// Fewer than n−f arrivals means the mark was not a real round (or too
	// many processes are down); discard.
	if g.count < r.cfg.N-r.cfg.F {
		return
	}
	r.corr += clock.Local(g.rd.Adjust(ctx.Scratch(r.cfg.N)))

	// Join the main algorithm at the next round mark.
	next := mark + clock.Local(r.cfg.P)
	inner := NewProc(r.cfg, r.corr)
	inner.rd.t = next
	inner.rd.base = next
	inner.rd.rnd = int(math.Round(float64(next-clock.Local(r.cfg.T0)) / r.cfg.P))
	r.inner = inner
	ctx.Annotate(metrics.TagRejoined, float64(inner.rd.rnd))
	inner.setTimer(ctx, inner.broadcastMark(ctx))
}

// CrashRejoin is the crash/rejoin lifecycle of one process around the
// paper's algorithm. It runs the maintenance automaton until the process
// crashes: by itself, at the first delivery once its physical clock has
// reached the crash time, or when a timeline action calls Crash. A crashed
// process is dead, not merely silent (a silent process still resynchronizes
// its own clock): every delivery, timers included, is dropped, and Corr is
// frozen at its value when the process died while the physical clock runs on
// underneath, as a dead machine's oscillator would. After a timeline
// Rejoin, the next delivery wakes a §9.1 Rejoiner seeded with that stale
// correction and hands it the delivery; the Rejoiner gathers a full round of
// marks and reintegrates. Waking on the next delivery rather than at the
// rejoin instant mirrors the model: a repaired process cannot act before an
// interrupt reaches it (§2.1), and the running system's next broadcast is
// that interrupt.
//
// The process belongs among the faulty ones for the whole run — §9.1 counts
// a crashed process among the f faulty processes, which the others already
// tolerate — so no invariant ever judges its dead or stale clock.
type CrashRejoin struct {
	cfg Config
	at  clock.Local
	// inner is the maintenance automaton, and the Rejoiner after a rejoin.
	inner interface {
		sim.Process
		sim.CorrHolder
	}

	down, restart bool
	stale         clock.Local
}

var (
	_ sim.Process    = (*CrashRejoin)(nil)
	_ sim.CorrHolder = (*CrashRejoin)(nil)
)

// NewCrashRejoin wraps a maintenance automaton started at correction corr
// that crashes by itself once its physical clock reaches at; +Inf leaves the
// crash to a timeline action.
func NewCrashRejoin(cfg Config, corr, at clock.Local) *CrashRejoin {
	return &CrashRejoin{cfg: cfg, at: at, inner: NewProc(cfg, corr)}
}

// Crash takes the process down, capturing the correction that goes stale
// during the outage.
func (c *CrashRejoin) Crash() {
	c.down = true
	c.stale = c.inner.Corr()
}

// Rejoin marks a crashed process restartable; the Rejoiner is built at the
// next delivery. A process past its crash time crashes again there.
func (c *CrashRejoin) Rejoin() { c.down, c.restart = false, true }

// Rejoined reports whether the process completed §9.1 reintegration.
func (c *CrashRejoin) Rejoined() bool {
	rj, ok := c.inner.(*Rejoiner)
	return ok && rj.Joined()
}

// Receive implements sim.Process.
func (c *CrashRejoin) Receive(ctx *sim.Context, m sim.Message) {
	if !c.down && ctx.PhysNow() >= c.at {
		c.Crash()
	}
	if c.down {
		return
	}
	if c.restart {
		c.restart = false
		rj := NewRejoiner(c.cfg, c.stale)
		c.inner = rj
		rj.Receive(ctx, sim.Message{From: m.To, To: m.To, Kind: sim.KindStart, SentAt: m.DeliverAt, DeliverAt: m.DeliverAt})
		// The waking delivery is real traffic for the Rejoiner to gather;
		// pre-outage timer payloads it does not recognize are ignored.
	}
	c.inner.Receive(ctx, m)
}

// Corr implements sim.CorrHolder: the frozen stale value while down.
func (c *CrashRejoin) Corr() clock.Local {
	if c.down {
		return c.stale
	}
	return c.inner.Corr()
}

package hier

import (
	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// TierID says which of the two algorithm instances a round message belongs
// to, so a representative can run both over one mailbox.
type TierID uint8

// The two tiers.
const (
	TierInner TierID = iota + 1
	TierOuter
)

// TMsg is the round message of §4.2, tagged with its tier. As in core, the
// mark is informational: only the arrival time enters the computation, so a
// Byzantine sender's lever is *when* (and to whom) it sends, not what.
type TMsg struct {
	Tier TierID
	Mark clock.Local
}

// Discipline relays a representative's outer-tier adjustment to its
// followers. A zero-adjustment Discipline is still sent every outer round:
// it doubles as the liveness heartbeat the election monitors.
type Discipline struct {
	Adj   float64
	Round int32
}

// hTimer is the payload of a tier's TIMER interrupt. Unlike core.Proc — in
// which CORR changes only at the update that also sets the next timer — a
// Member's CORR can jump *between* setting a timer and its firing (an outer
// adjustment or a discipline message lands mid-round), which would silently
// shift the pending mark off the logical schedule: a forward jump eats into
// the next collection window until the whole cluster misses its arrivals.
// So every CORR jump re-arms the other tier's pending timer on the new
// clock, and gen identifies the superseded timer so it is ignored when the
// engine (which has no cancellation) still delivers it. Member also ignores
// timers with any other payload (e.g. left pending by a predecessor
// automaton).
type hTimer struct {
	tier TierID
	gen  uint32
}

// wire holds a system's members' payloads boxed once, before the run, and
// only read during it, so that a send or a timer boxes nothing: each tier's
// round messages (core.RoundMsgs) and each tier's timer by generation. A
// payload outside the tables — a late representative's skipped-to mark, a
// generation past the last interned — is boxed at the send as before;
// either way the value is the same.
type wire struct {
	msgs   [2]core.RoundMsgs
	timers [2][]any
}

// intern fills w for a run of rounds inner rounds of cfg: either tier's
// round messages and the timers of a few arms per round.
func (w *wire) intern(cfg Config, rounds int) {
	for t, p := range []analysis.Params{cfg.InnerParams(0), cfg.OuterParams()} {
		tier := TierInner + TierID(t)
		w.msgs[t] = core.InternRounds(p, rounds, func(mark clock.Local) any { return TMsg{Tier: tier, Mark: mark} })
		w.timers[t] = make([]any, 4*rounds+16)
		for g := range w.timers[t] {
			w.timers[t][g] = hTimer{tier, uint32(g)}
		}
	}
}

// msg returns tier's round message for round i with mark.
func (w *wire) msg(tier TierID, i int, mark clock.Local) any {
	if m, ok := w.msgs[tier-1].Lookup(i, mark); ok {
		return m
	}
	return TMsg{Tier: tier, Mark: mark}
}

// timer returns tier's timer payload of generation gen.
func (w *wire) timer(tier TierID, gen uint32) any {
	if ts := w.timers[tier-1]; int(gen) < len(ts) {
		return ts[gen]
	}
	return hTimer{tier, gen}
}

// Member is the two-tier automaton of package hier: every process runs one.
// Each tier is a core.Round — the §4.2 instance core.Proc also runs — with
// arrivals slotted by cluster rank inside and by cluster id outside. The
// inner tier is always live; the outer tier exists only while the process is
// its cluster's acting representative (it is created in place on election).
// Both tiers update the one shared CORR, so local time is Ph + CORR exactly
// as in core, and followers additionally apply the representative's relayed
// outer adjustments.
//
// The timing of the two tiers is interleaved, not synchronized: inner marks
// sit at T⁰+iP, outer marks at T⁰+P/2+iP, and both collection windows are
// far shorter than P/2 in any validated regime, so a round's CORR jumps
// (inner update, then outer update and discipline delivery) happen strictly
// between active collection windows and act as common-mode shifts within a
// cluster.
type Member struct {
	cfg     Config
	id      sim.ProcID
	cluster int
	lo, hi  sim.ProcID
	cands   int   // candidate count in the own cluster
	wire    *wire // the system's interned payloads

	corr     clock.Local
	inner    core.Round
	outer    *core.Round // non-nil while acting representative
	repRank  int
	lastDisc clock.Local

	// Pending-timer bookkeeping: each tier has at most one live timer; the
	// generation counters invalidate superseded ones and the marks remember
	// the scheduled logical time for re-arming after a CORR jump.
	innerGen, outerGen uint32
	innerAt, outerAt   clock.Local
}

var (
	_ sim.Process    = (*Member)(nil)
	_ sim.CorrHolder = (*Member)(nil)
)

// NewMember builds the automaton for process id with the given initial
// correction. The caller is responsible for cfg.Validate.
func NewMember(cfg Config, id sim.ProcID, initialCorr clock.Local) *Member {
	return newMember(cfg, id, initialCorr, &noWire)
}

// noWire interns nothing: a member outside a System boxes its payloads.
var noWire wire

// newMember is NewMember sending the payloads of w.
func newMember(cfg Config, id sim.ProcID, initialCorr clock.Local, w *wire) *Member {
	cfg = cfg.withDefaults()
	cluster := cfg.ClusterOf(id)
	lo, hi := cfg.ClusterBounds(cluster)
	_, ch := cfg.candidateBounds(cluster)
	return &Member{
		cfg: cfg, id: id, cluster: cluster, lo: lo, hi: hi, cands: int(ch - lo), wire: w,
		corr:  initialCorr,
		inner: core.NewRound(cfg.InnerParams(cluster), core.Midpoint),
	}
}

// Corr implements sim.CorrHolder: the local time is Ph_p + CORR.
func (m *Member) Corr() clock.Local { return m.corr }

// Representative returns the id this member currently treats as its
// cluster's representative.
func (m *Member) Representative() sim.ProcID { return m.lo + sim.ProcID(m.repRank) }

// ActingRep reports whether this member is running the outer tier.
func (m *Member) ActingRep() bool { return m.outer != nil }

// Round returns the inner tier's current round index.
func (m *Member) Round() int { return m.inner.Index() }

func (m *Member) local(ctx *sim.Context) clock.Local { return ctx.PhysNow() + m.corr }

// armInner arranges the inner tier's TIMER for logical time T on the
// current clock, superseding any pending inner timer.
func (m *Member) armInner(ctx *sim.Context, T clock.Local) {
	m.innerGen++
	m.innerAt = T
	ctx.SetTimer(T-m.corr, m.wire.timer(TierInner, m.innerGen))
}

// armOuter is armInner's outer-tier twin.
func (m *Member) armOuter(ctx *sim.Context, T clock.Local) {
	m.outerGen++
	m.outerAt = T
	ctx.SetTimer(T-m.corr, m.wire.timer(TierOuter, m.outerGen))
}

// bumpFromInner applies an inner-tier CORR jump and re-arms the outer
// tier's pending timer (if any) on the new clock; the inner handler sets
// its own next timer afterwards.
func (m *Member) bumpFromInner(ctx *sim.Context, adj float64) {
	m.corr += clock.Local(adj)
	if m.outer != nil {
		m.armOuter(ctx, m.outerAt)
	}
}

// bumpFromOuter applies an outer-tier (or discipline) CORR jump and re-arms
// the inner tier's pending timer on the new clock.
func (m *Member) bumpFromOuter(ctx *sim.Context, adj float64) {
	m.corr += clock.Local(adj)
	m.armInner(ctx, m.innerAt)
}

// Receive implements sim.Process.
func (m *Member) Receive(ctx *sim.Context, msg sim.Message) {
	switch msg.Kind {
	case sim.KindOrdinary:
		m.receiveOrdinary(ctx, msg)

	case sim.KindStart:
		m.lastDisc = m.local(ctx)
		m.innerBroadcast(ctx)
		if m.id == m.Representative() {
			m.becomeRep(ctx)
		}

	case sim.KindTimer:
		ht, ok := msg.Payload.(hTimer)
		if !ok {
			return
		}
		switch {
		case ht.tier == TierInner && ht.gen == m.innerGen:
			m.innerTimer(ctx)
		case ht.tier == TierOuter && ht.gen == m.outerGen:
			m.outerTimer(ctx)
		}
	}
}

// receiveOrdinary routes arrivals and discipline. Unlike core.Proc — where
// any ordinary message refreshes ARR — only TMsg payloads record arrivals
// here, routed by tier and sender group; the Byzantine lever (arrival-time
// poisoning) is unchanged since a faulty process controls its TMsgs' timing.
func (m *Member) receiveOrdinary(ctx *sim.Context, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case TMsg:
		from := m.cfg.ClusterOf(msg.From)
		switch {
		case pl.Tier == TierInner && from == m.cluster:
			m.inner.Record(int(msg.From-m.lo), float64(m.local(ctx)))
		case pl.Tier == TierOuter && from != m.cluster && m.outer != nil:
			// Outer arrivals are slotted by cluster, not by sender id, so a
			// freshly elected foreign representative is heard without any
			// membership exchange.
			m.outer.Record(from, float64(m.local(ctx)))
		}

	case Discipline:
		// Followers apply the relayed outer adjustment; an acting
		// representative runs its own outer instance and ignores relays
		// (e.g. from a deposed-but-alive predecessor).
		if m.outer == nil && msg.From == m.Representative() && msg.From != m.id {
			m.bumpFromOuter(ctx, pl.Adj)
			m.lastDisc = m.local(ctx)
			ctx.Annotate(metrics.TagDiscipline, pl.Adj)
		}
	}
}

// innerBroadcast is §4.2's BCAST step restricted to the own cluster: one
// multicast of c copies over [lo, hi) instead of n broadcast copies.
func (m *Member) innerBroadcast(ctx *sim.Context) {
	ctx.Annotate(metrics.TagRoundBegin, float64(m.inner.Index()))
	ctx.Multicast(m.lo, m.hi, m.wire.msg(TierInner, m.inner.Index(), m.inner.Mark()))
	m.armInner(ctx, m.inner.Collect(0))
}

func (m *Member) innerTimer(ctx *sim.Context) {
	if m.inner.Broadcasting() {
		m.innerBroadcast(ctx)
		return
	}
	adj := m.inner.Adjust(ctx.Scratch(m.cfg.N))
	m.bumpFromInner(ctx, adj)
	ctx.Annotate(metrics.TagAdjust, adj)
	ctx.Annotate(metrics.TagRoundComplete, float64(m.inner.Index()))
	m.inner.Advance()
	m.armInner(ctx, m.inner.Mark())
	m.checkElection(ctx)
}

// checkElection runs once per inner round, after the update: a follower that
// has heard no discipline for more than ElectAfter of local time rotates to
// the next candidate, possibly electing itself.
func (m *Member) checkElection(ctx *sim.Context) {
	if m.outer != nil {
		// Acting representatives do not depose themselves; concurrent
		// representatives after a spurious election are harmless (followers
		// obey exactly one, and outer slots are last-write-wins per cluster).
		return
	}
	if float64(m.local(ctx)-m.lastDisc) <= m.cfg.ElectAfter {
		return
	}
	m.repRank = (m.repRank + 1) % m.cands
	m.lastDisc = m.local(ctx) // fresh grace period for the new tenure
	ctx.Annotate(metrics.TagElect, float64(m.Representative()))
	if m.id == m.Representative() {
		m.becomeRep(ctx)
	}
}

// becomeRep starts the outer instance in place, fast-forwarded to the next
// outer mark at or after the current local time (a late-elected
// representative joins the running schedule; its first update may see a cold
// ARR and skip via the adjustment guard, converging one round later).
func (m *Member) becomeRep(ctx *sim.Context) {
	outer := core.NewRound(m.cfg.OuterParams(), core.Midpoint)
	outer.SkipTo(m.local(ctx))
	m.outer = &outer
	m.armOuter(ctx, outer.Mark())
}

func (m *Member) outerTimer(ctx *sim.Context) {
	if m.outer == nil {
		return
	}
	if m.outer.Broadcasting() {
		m.outerBroadcast(ctx)
		return
	}
	adj := m.outer.Adjust(ctx.Scratch(m.cfg.N))
	m.bumpFromOuter(ctx, adj)
	ctx.Annotate(metrics.TagOuterAdjust, adj)
	m.outer.Advance()
	m.armOuter(ctx, m.outer.Mark())
	// The followers are the rest of the cluster, on either side of this
	// process: one multicast each side.
	var pl any = Discipline{Adj: adj, Round: int32(m.outer.Index() - 1)}
	ctx.Multicast(m.lo, m.id, pl)
	ctx.Multicast(m.id+1, m.hi, pl)
	m.lastDisc = m.local(ctx)
}

// outerBroadcast sends the outer round mark to every foreign cluster's
// candidate set (so a representative elected later still has warm peers), one
// multicast per cluster over its candidate ids, and records the own-cluster
// slot directly at the nominal substrate offset — looping a copy through the
// intra-cluster channel would stamp it with an inner-band delay and bias the
// midpoint low.
func (m *Member) outerBroadcast(ctx *sim.Context) {
	pl := m.wire.msg(TierOuter, m.outer.Index(), m.outer.Mark())
	for j := 0; j < m.cfg.Clusters(); j++ {
		if j == m.cluster {
			m.outer.Record(j, float64(m.local(ctx))+m.cfg.OuterDelta)
			continue
		}
		lo, hi := m.cfg.candidateBounds(j)
		ctx.Multicast(lo, hi, pl)
	}
	m.armOuter(ctx, m.outer.Collect(0))
}

package sim

import (
	"sort"
	"testing"

	"repro/internal/clock"
)

// lazyTestEngine builds the standard lazy-vs-eager differential workload: n
// beacon processes with near-simultaneous starts (so whole fan-out bursts
// are in flight together), drifting clocks, and a randomized delay model.
func lazyTestEngine(t *testing.T, n int, s Scheduler, b BroadcastMode, ch Channel, adv Adversary) *Engine {
	t.Helper()
	procs := make([]Process, n)
	clocks := make([]clock.Clock, n)
	starts := make([]clock.Real, n)
	drift := clock.ConstantDrift{RhoBound: 1e-5}
	for i := range procs {
		procs[i] = &testBeacon{period: 1e-3}
		clocks[i] = drift.Build(i, n)
		starts[i] = clock.Real(i) * 1e-6
	}
	eng, err := New(Config{
		Procs:     procs,
		Clocks:    clocks,
		StartAt:   starts,
		Delay:     UniformDelay{Delta: 4e-4, Eps: 1e-4},
		Channel:   ch,
		Seed:      7,
		Scheduler: s,
		Broadcast: b,
		Adversary: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestBroadcastModeEquivalence is the eager-vs-lazy differential demanded by
// the materialization change: the same workload under every scheduler ×
// broadcast-mode combination must produce the bit-identical delivery
// sequence — same (DeliverAt, From, To, Kind) for every event, in the same
// order. Lazy materialization only changes *when* fan-out copies occupy
// queue slots; any drift in delay sampling, sequencing, or tie-break order
// shows up here as a first-divergence index.
func TestBroadcastModeEquivalence(t *testing.T) {
	type delivered struct {
		at   clock.Real
		from ProcID
		to   ProcID
		kind Kind
	}
	run := func(s Scheduler, b BroadcastMode) []delivered {
		t.Helper()
		const n = 101 // far above lazyBroadcastMinN and calActivateLen
		eng := lazyTestEngine(t, n, s, b, nil, nil)
		if want := b == BroadcastLazy || b == BroadcastAuto; eng.LazyBroadcast() != want {
			t.Fatalf("mode %d at n=%d: LazyBroadcast()=%v, want %v", b, n, eng.LazyBroadcast(), want)
		}
		var log []delivered
		eng.Observe(observerFunc(func(_ *Engine, m Message) {
			log = append(log, delivered{at: m.DeliverAt, from: m.From, to: m.To, kind: m.Kind})
		}))
		if err := eng.Run(0.01); err != nil {
			t.Fatal(err)
		}
		if len(log) < 5*n*n {
			t.Fatalf("scheduler %d mode %d: only %d deliveries — not a meaningful comparison", s, b, len(log))
		}
		return log
	}

	ref := run(SchedulerHeap, BroadcastEager)
	for _, s := range []Scheduler{SchedulerHeap, SchedulerAuto, SchedulerCalendar} {
		for _, b := range []BroadcastMode{BroadcastEager, BroadcastLazy, BroadcastAuto} {
			if s == SchedulerHeap && b == BroadcastEager {
				continue
			}
			got := run(s, b)
			if len(got) != len(ref) {
				t.Fatalf("scheduler %d mode %d delivered %d events, reference delivered %d", s, b, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("scheduler %d mode %d diverges at event %d: %+v vs reference %+v", s, b, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestLazyAccountingEquivalence pins the delivery-accounting contract under
// lazy materialization: MessagesSent counts materialized-equivalent copies
// (one per recipient actually routed), MessagesLost counts per-copy channel
// drops, and the delivered-step totals agree with eager mode exactly — with
// a lossy channel in the path, so the lost/sent split is exercised too.
func TestLazyAccountingEquivalence(t *testing.T) {
	const n = 48
	ch := LossyLinks{}.BreakBothWays(0, 1).BreakBothWays(2, 40).BreakBothWays(17, 33)
	type account struct {
		sent, lost int64
		steps      int
	}
	run := func(b BroadcastMode) account {
		t.Helper()
		eng := lazyTestEngine(t, n, SchedulerAuto, b, ch, nil)
		if err := eng.Run(0.02); err != nil {
			t.Fatal(err)
		}
		return account{sent: eng.MessagesSent(), lost: eng.MessagesLost(), steps: eng.Steps()}
	}
	eager := run(BroadcastEager)
	lazy := run(BroadcastLazy)
	if eager != lazy {
		t.Fatalf("accounting diverges: eager %+v, lazy %+v", eager, lazy)
	}
	if eager.lost == 0 {
		t.Fatal("no copies lost — the lossy split was not exercised")
	}
	if eager.sent <= int64(eager.steps)/2 {
		t.Fatalf("implausible accounting: sent=%d steps=%d", eager.sent, eager.steps)
	}
}

// pendingSnapshotter is an adversary that, on its trigger'th Retime call,
// snapshots the full pending-delivery multiset through the omniscient view.
// Retiming is the identity, so installing it does not perturb the execution.
type pendingSnapshotter struct {
	trigger int
	calls   int
	snap    []Message
}

func (p *pendingSnapshotter) Retime(v *AdversaryView, _, _ ProcID, _ clock.Real, base float64) float64 {
	p.calls++
	if p.calls == p.trigger {
		v.PendingDeliveries(func(m *Message) bool {
			p.snap = append(p.snap, *m)
			return true
		})
	}
	return base
}

// TestLazyPendingDeliveriesView checks the adversary's PendingDeliveries
// view under lazy materialization: unmaterialized fan-out copies must be
// visible per-copy, exactly as in eager mode. The snapshot is taken
// mid-burst (while fan-outs are in flight) and compared as a multiset —
// iteration order is explicitly unspecified.
func TestLazyPendingDeliveriesView(t *testing.T) {
	const n = 48
	snapshot := func(b BroadcastMode) []Message {
		t.Helper()
		adv := &pendingSnapshotter{trigger: 10 * n}
		eng := lazyTestEngine(t, n, SchedulerAuto, b, nil, adv)
		if err := eng.Run(0.02); err != nil {
			t.Fatal(err)
		}
		if adv.snap == nil {
			t.Fatalf("mode %d: snapshot never triggered (%d retime calls)", b, adv.calls)
		}
		sort.Slice(adv.snap, func(i, j int) bool {
			a, b := adv.snap[i], adv.snap[j]
			if a.DeliverAt != b.DeliverAt {
				return a.DeliverAt < b.DeliverAt
			}
			if a.From != b.From {
				return a.From < b.From
			}
			if a.To != b.To {
				return a.To < b.To
			}
			return a.Kind < b.Kind
		})
		return adv.snap
	}
	eager := snapshot(BroadcastEager)
	lazy := snapshot(BroadcastLazy)
	if len(eager) != len(lazy) {
		t.Fatalf("pending multiset size diverges: eager %d, lazy %d", len(eager), len(lazy))
	}
	if len(eager) < n {
		t.Fatalf("only %d pending events at snapshot — no fan-out in flight", len(eager))
	}
	for i := range eager {
		e, l := eager[i], lazy[i]
		if e.DeliverAt != l.DeliverAt || e.From != l.From || e.To != l.To || e.Kind != l.Kind || e.SentAt != l.SentAt {
			t.Fatalf("pending multiset diverges at %d: eager %+v, lazy %+v", i, e, l)
		}
	}
}

// TestLazySchedulerMemory states what a lazy round costs the scheduler. Both
// modes hold one queue entry per pending copy (QueuePeak ≈ n²); lazy holds
// nothing else per copy. With every process broadcasting each period:
// the blocks in use never exceed what the binned entries fill plus one
// partial block per nonempty bin, headers one per in-flight broadcast, the
// slab only timers — and the capacity carved in the first rounds serves all
// later ones.
func TestLazySchedulerMemory(t *testing.T) {
	const n = 101
	eng := lazyTestEngine(t, n, SchedulerAuto, BroadcastLazy, nil, nil)
	q := &eng.queue
	type footprint struct{ blocks, win, hdrs, slab int }
	capacity := func() footprint {
		return footprint{int(q.nblocks), cap(q.win), cap(q.hdrs), cap(q.slab.msgs)}
	}
	var after2 footprint
	maxBinned := 0
	for r := 1; r <= 8; r++ {
		// Stop mid-burst: the round's fan-outs are in flight.
		if err := eng.Run(clock.Real(r)*1e-3 + 3e-4); err != nil {
			t.Fatal(err)
		}
		live, bins := 0, 0
		for i := range q.bins {
			if q.bins[i].n > 0 {
				bins++
			}
			for id := q.bins[i].head; id >= 0; id = q.block(id).next {
				live++
			}
		}
		if max := (q.binned+blockLen-1)/blockLen + bins; live > max {
			t.Fatalf("round %d: %d blocks chained for %d binned entries in %d bins; want ≤ %d", r, live, q.binned, bins, max)
		}
		if held := len(q.hdrs) - len(q.hdrFree); held > 2*n {
			t.Fatalf("round %d: %d broadcast headers held for %d senders", r, held, n)
		}
		if held := len(q.slab.msgs) - len(q.slab.free); held > 2*n {
			t.Fatalf("round %d: %d slab messages held; lazy copies must not take slab slots", r, held)
		}
		maxBinned = max(maxBinned, q.binned)
		if r == 2 {
			after2 = capacity()
		}
	}
	if maxBinned < n*(n-1)/2 {
		t.Fatalf("at most %d copies binned mid-burst — the bursts never overlapped, weak test", maxBinned)
	}
	if eng.QueuePeak() < n*(n-1)/2 || eng.QueuePeak() > 2*n*n {
		t.Fatalf("QueuePeak %d, want about n² = %d pending copies", eng.QueuePeak(), n*n)
	}
	if got := capacity(); got != after2 {
		t.Fatalf("scheduler stores grew after round 2: %+v → %+v", after2, got)
	}
	// Bytes: 24 per pending copy, rounded up to whole chunks of blocks, plus
	// the window the largest slot was sorted in.
	if carved, need := int(q.nblocks)*blockLen, eng.QueuePeak()+blockLen*len(q.bins); carved > need+chunkBlocks*blockLen {
		t.Fatalf("%d entry slots carved for a peak of %d pending copies", carved, eng.QueuePeak())
	}
}

// TestBreakBothWaysClone is the regression test for the map-aliasing bug:
// BreakBothWays used to write the new dead links into the receiver's own
// map, so every derived channel silently mutated its parent (and any other
// channel sharing the map). Each call must clone.
func TestBreakBothWaysClone(t *testing.T) {
	base := LossyLinks{}.BreakBothWays(0, 1)
	d1 := base.BreakBothWays(2, 3)
	d2 := base.BreakBothWays(4, 5)

	if len(base.Dead) != 2 {
		t.Fatalf("base mutated by derivation: %d dead links, want 2", len(base.Dead))
	}
	if len(d1.Dead) != 4 || len(d2.Dead) != 4 {
		t.Fatalf("derived channels have %d and %d dead links, want 4 each", len(d1.Dead), len(d2.Dead))
	}
	if d1.Dead[Link{From: 4, To: 5}] || d2.Dead[Link{From: 2, To: 3}] {
		t.Fatal("sibling derivations share a map")
	}
	if _, ok := base.Dead[Link{From: 2, To: 3}]; ok {
		t.Fatal("base channel acquired the derived link")
	}
	// Route still honors both generations on the derived channel.
	if _, ok := d1.Route(0, 1, 0, 1e-3); ok {
		t.Fatal("inherited dead link 0→1 routes on derived channel")
	}
	if _, ok := d1.Route(3, 2, 0, 1e-3); ok {
		t.Fatal("new dead link 3→2 routes on derived channel")
	}
	if _, ok := base.Route(2, 3, 0, 1e-3); !ok {
		t.Fatal("base channel lost link 2→3 it never broke")
	}
}

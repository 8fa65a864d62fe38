package sim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/clock"
)

// beaconEngine builds the standard fan-out workload: n beacon processes with
// near-simultaneous starts (so whole fan-out bursts are in flight together),
// drifting clocks, and a randomized delay model unless one is passed. Every
// beacon fans out as b's unicast and block fields spell it (fanOutAs).
func beaconEngine(t *testing.T, n int, b testBeacon, delay DelayModel, ch Channel, adv Adversary) *Engine {
	t.Helper()
	procs := make([]Process, n)
	clocks := make([]clock.Clock, n)
	starts := make([]clock.Real, n)
	drift := clock.ConstantDrift{RhoBound: 1e-5}
	for i := range procs {
		procs[i] = &testBeacon{period: 1e-3, unicast: b.unicast, block: b.block}
		clocks[i] = drift.Build(i, n)
		starts[i] = clock.Real(i) * 1e-6
	}
	if delay == nil {
		delay = UniformDelay{Delta: 4e-4, Eps: 1e-4}
	}
	eng, err := New(Config{
		Procs:     procs,
		Clocks:    clocks,
		StartAt:   starts,
		Delay:     delay,
		Channel:   ch,
		Seed:      7,
		Adversary: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// hookLogger is an identity adversary that records every send and receive
// hook call, and checks SendHook's rule on each send: the copy announced is
// not in the buffer yet.
type hookLogger struct {
	t   *testing.T
	log []string
}

func (h *hookLogger) Retime(_ *AdversaryView, _, _ ProcID, _ clock.Real, base float64) float64 {
	return base
}

func (h *hookLogger) OnSend(v *AdversaryView, m Message) {
	h.log = append(h.log, fmt.Sprintf("send@%v %d→%d at %v", v.Now(), m.From, m.To, m.DeliverAt))
	v.PendingDeliveries(func(p *Message) bool {
		if *p == m {
			h.t.Fatalf("OnSend(%+v): the copy is already pending", m)
		}
		return true
	})
}

func (h *hookLogger) OnReceive(v *AdversaryView, m Message) {
	h.log = append(h.log, fmt.Sprintf("recv@%v %d→%d sent %v", v.Now(), m.From, m.To, m.SentAt))
}

// TestBroadcastMatchesSends is the reference Context.Broadcast and
// Context.Multicast are held to: a fan-out is n Sends to q = 0..n−1,
// batched. The beacon workload runs with the Send loop, with ctx.Broadcast
// and with Multicasts over blocks of n/3+1 ids (three blocks, the last one
// shorter, one of them holding the sender), and the fan-outs must produce
// the Send loop's delivery sequence (DeliverAt, From, To, Kind), its
// sent/lost/step counters and its send/receive hook calls — over the
// reliable mesh, constant delays (a fan-out's copies tie on delivery time,
// so sequence numbers alone order them), a lossy channel (the sent/lost
// split), the stateful Ether (channel state evolving per copy) and with an
// adversary installed, at n = 8 and n = 40.
// Any drift in a fan-out's delay draws, sequence numbers, loss accounting or
// hook order shows up as a first-divergence index. A fan-out is one header
// whatever its range, so neither fan-out run's header store grows past the
// 4n+16 it starts with: a process's three multicasts and its timer in flight
// take four.
func TestBroadcastMatchesSends(t *testing.T) {
	type delivered struct {
		at   clock.Real
		from ProcID
		to   ProcID
		kind Kind
	}
	type outcome struct {
		log        []delivered
		hooks      []string
		sent, lost int64
		steps      int
		hdrs       int
	}
	lossy := LossyLinks{}.BreakBothWays(0, 1).BreakBothWays(2, 5).BreakBothWays(3, 6)
	cases := []struct {
		name  string
		delay DelayModel     // nil: uniform
		ch    func() Channel // nil: the reliable mesh; a stateful channel is built per run
		adv   bool           // install the hook logger
	}{
		{name: "fullmesh"},
		{name: "ties", delay: ConstantDelay{Delta: 4e-4}},
		{name: "lossy", ch: func() Channel { return lossy }},
		{name: "ether", ch: func() Channel { return NewEther(5e-5, 2) }},
		{name: "hooks", adv: true},
	}
	for _, n := range []int{8, 40} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
				run := func(b testBeacon) outcome {
					t.Helper()
					var adv Adversary
					hl := &hookLogger{t: t}
					if tc.adv {
						adv = hl
					}
					var ch Channel
					if tc.ch != nil {
						ch = tc.ch()
					}
					eng := beaconEngine(t, n, b, tc.delay, ch, adv)
					var o outcome
					eng.Observe(observerFunc(func(_ *Engine, m Message) {
						o.log = append(o.log, delivered{at: m.DeliverAt, from: m.From, to: m.To, kind: m.Kind})
					}))
					if err := eng.Run(0.006); err != nil {
						t.Fatal(err)
					}
					o.hooks = hl.log
					o.sent, o.lost, o.steps = eng.MessagesSent(), eng.MessagesLost(), eng.Steps()
					o.hdrs = cap(eng.queue.hdrs)
					return o
				}
				want := run(testBeacon{unicast: true})
				if len(want.log) < 4*n*n {
					t.Fatalf("only %d deliveries — not a meaningful comparison", len(want.log))
				}
				if tc.ch != nil && want.lost == 0 {
					t.Fatal("no copies lost — the channel's loss path was not exercised")
				}
				if tc.adv && len(want.hooks) < 8*n*n {
					t.Fatalf("only %d hook calls recorded", len(want.hooks))
				}
				for _, fan := range []struct {
					name string
					b    testBeacon
				}{
					{"Broadcast", testBeacon{}},
					{"Multicast", testBeacon{block: n/3 + 1}},
				} {
					got := run(fan.b)
					if got.sent != want.sent || got.lost != want.lost || got.steps != want.steps {
						t.Fatalf("accounting diverges: %s sent/lost/steps %d/%d/%d, Send loop %d/%d/%d",
							fan.name, got.sent, got.lost, got.steps, want.sent, want.lost, want.steps)
					}
					if i := mismatch(got.log, want.log); i >= 0 {
						t.Fatalf("delivery %d of %d (Send loop: %d) diverges: %s %+v, Send loop %+v",
							i, len(got.log), len(want.log), fan.name, got.log[i:min(i+1, len(got.log))], want.log[i:min(i+1, len(want.log))])
					}
					if i := mismatch(got.hooks, want.hooks); i >= 0 {
						t.Fatalf("hook call %d of %d (Send loop: %d) diverges: %s %q, Send loop %q",
							i, len(got.hooks), len(want.hooks), fan.name, got.hooks[i:min(i+1, len(got.hooks))], want.hooks[i:min(i+1, len(want.hooks))])
					}
					if got.hdrs > 4*n+16 {
						t.Fatalf("%s: the header store grew to %d, past the 4n+16 = %d it starts with", fan.name, got.hdrs, 4*n+16)
					}
				}
			})
		}
	}
}

// pendingSnapshotter is an adversary that, on its trigger'th Retime call,
// snapshots the full pending-delivery multiset through the omniscient view.
// Retiming is the identity, so installing it does not perturb the execution.
type pendingSnapshotter struct {
	trigger int
	calls   int
	at      clock.Real // when the snapshot was taken
	snap    []Message
}

func (p *pendingSnapshotter) Retime(v *AdversaryView, _, _ ProcID, _ clock.Real, base float64) float64 {
	p.calls++
	if p.calls == p.trigger {
		p.at = v.Now()
		v.PendingDeliveries(func(m *Message) bool {
			p.snap = append(p.snap, *m)
			return true
		})
	}
	return base
}

// TestLazyPendingDeliveriesView checks the adversary's PendingDeliveries
// view against the run itself: a snapshot taken mid-burst (while fan-outs are
// in flight) must equal, as a multiset — iteration order is explicitly
// unspecified — the messages buffered before that moment and delivered after
// it, whatever their form: START, TIMER, unicast and fan-out copy each
// exactly once.
func TestLazyPendingDeliveriesView(t *testing.T) {
	const n = 48
	procs := make([]Process, n)
	clocks := make([]clock.Clock, n)
	starts := make([]clock.Real, n)
	for i := range procs {
		// Odd processes fan out by Send loop.
		procs[i] = &testBeacon{period: 1e-3, unicast: i%2 == 1}
		clocks[i] = clock.ConstantDrift{RhoBound: 1e-5}.Build(i, n)
		starts[i] = clock.Real(i) * 1e-5
	}
	starts[n-2], starts[n-1] = 10e-3, 11e-3 // still to START when the snapshot is taken
	// A fan-out is n Retime calls either way, so this is the first copy of
	// one in the fourth round: nothing its Receive sends is buffered yet.
	adv := &pendingSnapshotter{trigger: (3*n+n/2)*n + 1}
	eng, err := New(Config{
		Procs: procs, Clocks: clocks, StartAt: starts,
		Delay: UniformDelay{Delta: 4e-4, Eps: 1e-4}, Seed: 7, Adversary: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := func(m Message) string {
		return fmt.Sprintf("%v %d→%d sent %v at %v", m.Kind, m.From, m.To, m.SentAt, m.DeliverAt)
	}
	// What the run delivers after the snapshot of what was buffered before it:
	// sent by an earlier Receive, or a START (buffered from time zero).
	var want []string
	eng.Observe(observerFunc(func(_ *Engine, m Message) {
		if adv.snap != nil && (m.SentAt < adv.at || m.Kind == KindStart) {
			want = append(want, key(m))
		}
	}))
	if err := eng.Run(0.02); err != nil {
		t.Fatal(err)
	}
	if adv.snap == nil {
		t.Fatalf("snapshot never triggered (%d retime calls)", adv.calls)
	}
	var starting, timers, unicasts, copies int
	got := make([]string, len(adv.snap))
	for i, m := range adv.snap {
		got[i] = key(m)
		switch {
		case m.Kind == KindStart:
			starting++
		case m.Kind == KindTimer:
			timers++
		case m.From%2 == 1:
			unicasts++
		default:
			copies++
		}
	}
	if starting != 2 || timers < n/2 || unicasts < n || copies < n {
		t.Fatalf("snapshot holds %d STARTs, %d TIMERs, %d unicasts, %d fan-out copies — not mid-burst with every form pending",
			starting, timers, unicasts, copies)
	}
	slices.Sort(got)
	slices.Sort(want)
	if i := mismatch(got, want); i >= 0 {
		t.Fatalf("pending view holds %d messages, %d already-buffered messages were delivered afterwards; sorted, they differ from #%d: %q vs %q",
			len(got), len(want), i, got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
	}
}

// mismatch returns the first index at which a and b differ — the shorter
// length when one is a proper prefix of the other — or −1 when they are equal.
func mismatch[T comparable](a, b []T) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestLazySchedulerMemory states what a round costs the time-major
// scheduler: one heap entry per pending copy (QueuePeak ≈ n²) and nothing
// else per copy. With every process broadcasting each period: headers one
// per in-flight broadcast or timer, and the heap and header store sized at
// New (DefaultEventHint, 4n+16) serve every round without growing.
func TestLazySchedulerMemory(t *testing.T) {
	const n = 101
	eng := beaconEngine(t, n, testBeacon{}, nil, nil, nil)
	q := &eng.queue
	type footprint struct{ heap, hdrs int }
	capacity := func() footprint { return footprint{cap(q.heap.items), cap(q.hdrs)} }
	before := capacity()
	if before.heap != DefaultEventHint(BroadcastAuto, n) {
		t.Fatalf("heap pre-sized to %d entries, want DefaultEventHint = %d", before.heap, DefaultEventHint(BroadcastAuto, n))
	}
	maxHeld := 0
	for r := 1; r <= 8; r++ {
		// Stop mid-burst: the round's fan-outs are in flight.
		if err := eng.Run(clock.Real(r)*1e-3 + 3e-4); err != nil {
			t.Fatal(err)
		}
		if held := len(q.hdrs) - len(q.hdrFree); held > 3*n {
			t.Fatalf("round %d: %d headers held for %d senders and their timers; copies must share their broadcast's", r, held, n)
		}
		maxHeld = max(maxHeld, q.heap.len())
	}
	if maxHeld < n*(n-1)/2 {
		t.Fatalf("at most %d copies pending mid-burst — the bursts never overlapped, weak test", maxHeld)
	}
	if eng.QueuePeak() < n*(n-1)/2 || eng.QueuePeak() > 2*n*n {
		t.Fatalf("QueuePeak %d, want about n² = %d pending copies", eng.QueuePeak(), n*n)
	}
	if got := capacity(); got != before {
		t.Fatalf("scheduler stores grew from their pre-sized capacity: %+v → %+v", before, got)
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

package sim

import (
	"math"
	"testing"

	"repro/internal/clock"
)

// chatter is a minimal traffic generator: on START and every TIMER it
// broadcasts, unicasts to its right neighbor, and re-arms its timer.
type chatter struct{ period clock.Local }

func (c *chatter) Receive(ctx *Context, m Message) {
	if m.Kind == KindOrdinary {
		return
	}
	ctx.Broadcast("b")
	ctx.Send(ProcID((int(ctx.ID())+1)%ctx.N()), "u")
	ctx.SetTimer(ctx.PhysNow()+c.period, nil)
}

func chatterEngine(t *testing.T, n int, adv Adversary, delay DelayModel, ch Channel) *Engine {
	t.Helper()
	procs := make([]Process, n)
	clocks := make([]clock.Clock, n)
	starts := make([]clock.Real, n)
	drift := clock.ConstantDrift{RhoBound: 1e-5}
	for i := range procs {
		procs[i] = &chatter{period: 1e-3}
		clocks[i] = drift.Build(i, n)
		starts[i] = clock.Real(i) * 1e-4
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

// wildRetimer returns a rotating sequence of pathological desired delays —
// NaN, ±Inf, far outside the envelope — exercising the clamp on every copy.
type wildRetimer struct {
	vals []float64
	i    int
	n    int
}

func (w *wildRetimer) Retime(_ *AdversaryView, _, _ ProcID, _ clock.Real, base float64) float64 {
	v := w.vals[w.i%len(w.vals)]
	w.i++
	w.n++
	return v
}

// envelopeCheck asserts every ordinary delivery lies within [δ−ε, δ+ε] of
// its send time.
type envelopeCheck struct {
	t      *testing.T
	lo, hi float64
	seen   int
}

func (c *envelopeCheck) OnDeliver(_ *Engine, m Message) {
	if m.Kind != KindOrdinary {
		return
	}
	c.seen++
	d := float64(m.DeliverAt - m.SentAt)
	if d < c.lo-1e-12 || d > c.hi+1e-12 {
		c.t.Errorf("delivery outside envelope: delay %v not in [%v, %v]", d, c.lo, c.hi)
	}
}

// TestAdversaryClampContract checks the clamp directly: NaN falls back to
// the sampled delay, everything else is forced into [δ−ε, δ+ε].
func TestAdversaryClampContract(t *testing.T) {
	eng := chatterEngine(t, 4, &wildRetimer{vals: []float64{0}}, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	ctl := eng.Adversary()
	if ctl == nil {
		t.Fatal("no controller installed")
	}
	// Runtime subtraction, matching the controller's own arithmetic (the
	// compile-time constant 4e-4−1e-4 folds exactly and differs by 1 ulp).
	d, e := 4e-4, 1e-4
	lo, hi := d-e, d+e
	cases := []struct {
		desired, sampled, want float64
	}{
		{math.NaN(), 4e-4, 4e-4},
		{math.Inf(1), 4e-4, hi},
		{math.Inf(-1), 4e-4, lo},
		{1e9, 4e-4, hi},
		{-1e9, 4e-4, lo},
		{4.2e-4, lo, 4.2e-4}, // inside the envelope: untouched
	}
	for _, c := range cases {
		if got := ctl.Clamp(c.desired, c.sampled); got != c.want {
			t.Errorf("Clamp(%v, %v) = %v, want %v", c.desired, c.sampled, got, c.want)
		}
	}
}

// TestAdversaryRetimeStaysInEnvelope drives a rotating set of pathological
// retimes (NaN, ±Inf, out-of-band) through a full run and asserts every
// ordinary delivery — broadcast fan-out and unicast alike — stays inside
// the declared [δ−ε, δ+ε] window.
func TestAdversaryRetimeStaysInEnvelope(t *testing.T) {
	adv := &wildRetimer{vals: []float64{math.NaN(), math.Inf(1), math.Inf(-1), 12.5, -3, 0, 4.4e-4}}
	eng := chatterEngine(t, 5, adv, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	check := &envelopeCheck{t: t, lo: 3e-4, hi: 5e-4}
	eng.Observe(check)
	if err := eng.Run(0.2); err != nil {
		t.Fatal(err)
	}
	if check.seen == 0 || adv.n == 0 {
		t.Fatalf("vacuous run: %d deliveries checked, %d retimes", check.seen, adv.n)
	}
	if adv.n < check.seen {
		t.Errorf("adversary saw %d copies but %d were delivered — some copies bypassed the retiming", adv.n, check.seen)
	}
}

// hookRecorder counts hook dispatches and asserts the view is live.
type hookRecorder struct {
	sends, recvs int
	pendingMax   int
}

func (h *hookRecorder) Retime(v *AdversaryView, _, _ ProcID, _ clock.Real, base float64) float64 {
	n := 0
	v.PendingDeliveries(func(*Message) bool { n++; return true })
	if n > h.pendingMax {
		h.pendingMax = n
	}
	return base
}

func (h *hookRecorder) OnSend(v *AdversaryView, m Message) {
	if m.Kind != KindOrdinary {
		panic("OnSend announced a non-ordinary message")
	}
	h.sends++
}

func (h *hookRecorder) OnReceive(v *AdversaryView, m Message) {
	if m.Kind != KindOrdinary {
		panic("OnReceive announced a non-ordinary message")
	}
	h.recvs++
}

// TestAdversaryHooksSeeEveryCopy checks the hook contract on a reliable
// mesh: OnSend fires once per scheduled copy, OnReceive once per delivered
// ordinary message, and the pending-deliveries view sees buffered traffic.
func TestAdversaryHooksSeeEveryCopy(t *testing.T) {
	h := &hookRecorder{}
	eng := chatterEngine(t, 5, h, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	if err := eng.Run(0.1); err != nil {
		t.Fatal(err)
	}
	if int64(h.sends) != eng.MessagesSent() {
		t.Errorf("OnSend fired %d times for %d scheduled copies", h.sends, eng.MessagesSent())
	}
	if h.recvs == 0 || h.recvs > h.sends {
		t.Errorf("OnReceive fired %d times (sends %d)", h.recvs, h.sends)
	}
	if h.pendingMax == 0 {
		t.Error("PendingDeliveries never saw a buffered message")
	}
}

// passthrough returns the sampled delay unchanged: with it installed the
// engine must replay exactly the no-adversary execution.
type passthrough struct{}

func (passthrough) Retime(_ *AdversaryView, _, _ ProcID, _ clock.Real, base float64) float64 {
	return base
}

// deliverySeq records (time, from, to, kind) per delivery.
type deliverySeq struct {
	log [][4]float64
}

func (d *deliverySeq) OnDeliver(_ *Engine, m Message) {
	d.log = append(d.log, [4]float64{float64(m.DeliverAt), float64(m.From), float64(m.To), float64(m.Kind)})
}

// TestPassthroughAdversaryPreservesExecution runs the same workload bare
// and with a passthrough adversary installed on every channel type; the
// delivery sequences must be identical — the interceptor chain adds no
// behavior of its own.
func TestPassthroughAdversaryPreservesExecution(t *testing.T) {
	channels := map[string]func() Channel{
		"fullmesh": func() Channel { return nil },
		"ether":    func() Channel { return NewEther(2e-4, 3) },
		"lossy":    func() Channel { return NewLossyLinks(Link{From: 0, To: 2}, Link{From: 3, To: 1}) },
	}
	for name, mk := range channels {
		t.Run(name, func(t *testing.T) {
			run := func(adv Adversary) [][4]float64 {
				eng := chatterEngine(t, 5, adv, UniformDelay{Delta: 4e-4, Eps: 1e-4}, mk())
				seq := &deliverySeq{}
				eng.Observe(seq)
				if err := eng.Run(0.1); err != nil {
					t.Fatal(err)
				}
				return seq.log
			}
			bare, intercepted := run(nil), run(passthrough{})
			if len(bare) == 0 {
				t.Fatal("no deliveries recorded")
			}
			if len(bare) != len(intercepted) {
				t.Fatalf("delivery counts differ: %d bare vs %d with passthrough adversary", len(bare), len(intercepted))
			}
			for i := range bare {
				if bare[i] != intercepted[i] {
					t.Fatalf("delivery %d differs: bare %v vs intercepted %v", i, bare[i], intercepted[i])
				}
			}
		})
	}
}

// TestSendPathClassification checks the engine's one classification of its
// send path, made by SetDelayModel, SetChannel and SetAdversary at New and
// again when a timeline swaps a part: a batch delay model (UniformDelay) is
// sampled with SampleAll and any other falls back to per-copy Sample,
// CenterDelay included; the full mesh
// routes inline and any other channel through Route; no controller exists
// without an adversary, and the controller's view reads the model in force.
func TestSendPathClassification(t *testing.T) {
	check := func(where string, e *Engine, batch, mesh, adv bool) {
		t.Helper()
		if (e.batch != nil) != batch {
			t.Errorf("%s: %T classified batch=%v, want %v", where, e.delay, e.batch != nil, batch)
		}
		if e.mesh != mesh {
			t.Errorf("%s: %T classified full mesh=%v, want %v", where, e.channel, e.mesh, mesh)
		}
		if (e.Adversary() != nil) != adv {
			t.Errorf("%s: controller installed=%v, want %v", where, e.Adversary() != nil, adv)
		}
	}
	perCopy := badCopyDelay{0.01} // Sample only
	eng := chatterEngine(t, 4, nil, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	check("New(uniform, default channel)", eng, true, true, false)
	if err := eng.SetDelayModel(perCopy); err != nil {
		t.Fatal(err)
	}
	check("SetDelayModel(per-copy)", eng, false, true, false)
	eng.SetChannel(NewLossyLinks(Link{From: 0, To: 1}))
	check("SetChannel(lossy)", eng, false, false, false)
	eng.SetAdversary(passthrough{})
	check("SetAdversary(passthrough)", eng, false, false, true)
	if d, e := eng.Adversary().view.Bounds(); d != 0.01 || e != 0.001 {
		t.Errorf("view bounds (%v, %v), want the per-copy model's (0.01, 0.001)", d, e)
	}
	if err := eng.SetDelayModel(CenterDelay{Delta: 4e-4, Eps: 1e-4}); err != nil {
		t.Fatal(err)
	}
	eng.SetChannel(nil)
	eng.SetAdversary(nil)
	check("swapped back", eng, false, true, false)
	if err := eng.Run(0.01); err != nil {
		t.Fatal(err)
	}

	eng2 := chatterEngine(t, 4, passthrough{}, perCopy, NewEther(2e-4, 3))
	check("New(per-copy, Ether, adversary)", eng2, false, false, true)
	eng2.SetChannel(FullMesh{})
	check("SetChannel(FullMesh)", eng2, false, true, true)
}

// TestCenterDelaySamplesCenter pins the E18 substrate: declared bounds keep
// the full ε band, every sample sits exactly at δ.
func TestCenterDelaySamplesCenter(t *testing.T) {
	d := CenterDelay{Delta: 10e-3, Eps: 1e-3}
	rng := NewRNG(1)
	if got := d.Sample(0, 1, 0, &rng); got != 10e-3 {
		t.Errorf("Sample = %v, want δ", got)
	}
}

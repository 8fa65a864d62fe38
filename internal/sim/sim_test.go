package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

// recorder is a minimal process that logs everything it receives and can
// perform scripted actions on START.
type recorder struct {
	got     []Message
	onStart func(ctx *Context)
	corr    clock.Local
}

func (r *recorder) Receive(ctx *Context, m Message) {
	r.got = append(r.got, m)
	if m.Kind == KindStart && r.onStart != nil {
		r.onStart(ctx)
	}
}

func (r *recorder) Corr() clock.Local { return r.corr }

func perfectClocks(n int) []clock.Clock {
	cs := make([]clock.Clock, n)
	for i := range cs {
		cs[i] = clock.Linear(0, 1)
	}
	return cs
}

func starts(n int, at clock.Real) []clock.Real {
	s := make([]clock.Real, n)
	for i := range s {
		s[i] = at
	}
	return s
}

func TestNewValidation(t *testing.T) {
	good := Config{
		Procs:   []Process{&recorder{}},
		Clocks:  perfectClocks(1),
		StartAt: starts(1, 0),
		Delay:   ConstantDelay{Delta: 0.01},
	}
	tests := []struct {
		name   string
		mutate func(*Config)
		is     error // when non-nil, the error must wrap it
	}{
		{"no processes", func(c *Config) { c.Procs = nil }, nil},
		{"clock count mismatch", func(c *Config) { c.Clocks = nil }, nil},
		{"start count mismatch", func(c *Config) { c.StartAt = nil }, nil},
		{"faulty count mismatch", func(c *Config) { c.Faulty = []bool{true, false} }, nil},
		{"nil process", func(c *Config) { c.Procs = []Process{nil} }, nil},
		{"nil clock", func(c *Config) { c.Clocks = []clock.Clock{nil} }, nil},
		{"nil delay", func(c *Config) { c.Delay = nil }, nil},
		{"delay violates A3: eps above delta", func(c *Config) { c.Delay = UniformDelay{Delta: 1, Eps: 2} }, nil},
		{"delay violates A3: negative eps", func(c *Config) { c.Delay = UniformDelay{Delta: 1, Eps: -0.5} }, nil},
		{"delay violates A3: negative delta", func(c *Config) { c.Delay = ConstantDelay{Delta: -1} }, nil},
		// Rejected before any engine is built, so nil procs are fine here.
		{"over the process cap", func(c *Config) { c.Procs = make([]Process, maxProcs+1) }, ErrTooManyProcs},
		{"negative shards", func(c *Config) { c.Shards = -1 }, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := good
			tt.mutate(&cfg)
			_, err := New(cfg)
			if err == nil || (tt.is != nil && !errors.Is(err, tt.is)) {
				t.Errorf("got %v, want a config error (wrapping %v)", err, tt.is)
			}
		})
	}
	if _, err := New(good); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	// δ = ε (zero lower edge) is the boundary A3 still allows.
	edge := good
	edge.Delay = UniformDelay{Delta: 1, Eps: 1}
	if _, err := New(edge); err != nil {
		t.Errorf("boundary δ=ε rejected: %v", err)
	}
}

// badCopyDelay delays the 0→1 copy by d and every other copy by δ.
type badCopyDelay struct{ d float64 }

func (m badCopyDelay) Sample(from, to ProcID, _ clock.Real, _ *RNG) float64 {
	if from == 0 && to == 1 {
		return m.d
	}
	return 0.01
}

func (badCopyDelay) Bounds() (float64, float64) { return 0.01, 0.001 }

// TestBadDeliveryTime: a delay model that sends a copy to a NaN, infinite or
// past delivery time makes Run fail, naming the model, the copy and both
// times — on either drain, from a broadcast or a unicast. At Shards = 2,
// processes 0 and 1 share a partition, so the copy never leaves its
// sender's partition.
func TestBadDeliveryTime(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), -0.5} {
		for _, shards := range []int{0, 2} {
			for _, unicast := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/shards=%d/unicast=%v", bad, shards, unicast), func(t *testing.T) {
					procs := make([]Process, 4)
					for i := range procs {
						procs[i] = &testBeacon{period: 1, unicast: unicast}
					}
					e, err := New(Config{
						Procs: procs, Clocks: perfectClocks(4), StartAt: starts(4, 1),
						Delay: badCopyDelay{bad}, Shards: shards,
					})
					if err != nil {
						t.Fatal(err)
					}
					err = e.Run(10)
					if err == nil {
						t.Fatalf("Run = nil after a copy to t=%v; %d sent, %d steps", 1+bad, e.MessagesSent(), e.Steps())
					}
					for _, want := range []string{"sim.badCopyDelay", "copy 0→1 at t=1 ", fmt.Sprintf("delivery at t=%v;", 1+bad)} {
						if !strings.Contains(err.Error(), want) {
							t.Errorf("error %q does not name %q", err, want)
						}
					}
				})
			}
		}
	}
}

func TestStartDelivery(t *testing.T) {
	n := 3
	procs := make([]Process, n)
	recs := make([]*recorder, n)
	for i := range procs {
		recs[i] = &recorder{}
		procs[i] = recs[i]
	}
	e, err := New(Config{
		Procs:   procs,
		Clocks:  perfectClocks(n),
		StartAt: []clock.Real{1, 2, 3},
		Delay:   ConstantDelay{Delta: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if len(r.got) != 1 || r.got[0].Kind != KindStart {
			t.Fatalf("process %d: got %v, want exactly one START", i, r.got)
		}
		if r.got[0].DeliverAt != clock.Real(i+1) {
			t.Errorf("process %d START at %v, want %v", i, r.got[0].DeliverAt, i+1)
		}
	}
}

func TestBroadcastReachesAllIncludingSelf(t *testing.T) {
	n := 4
	procs := make([]Process, n)
	recs := make([]*recorder, n)
	for i := range procs {
		recs[i] = &recorder{}
		procs[i] = recs[i]
	}
	recs[0].onStart = func(ctx *Context) { ctx.Broadcast("hello") }
	e, err := New(Config{
		Procs:   procs,
		Clocks:  perfectClocks(n),
		StartAt: starts(n, 0),
		Delay:   ConstantDelay{Delta: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		var ordinary int
		for _, m := range r.got {
			if m.Kind == KindOrdinary {
				ordinary++
				if m.Payload != "hello" || m.From != 0 {
					t.Errorf("process %d got unexpected message %+v", i, m)
				}
				if m.DeliverAt != 0.5 {
					t.Errorf("process %d delivery at %v, want 0.5", i, m.DeliverAt)
				}
			}
		}
		if ordinary != 1 {
			t.Errorf("process %d received %d ordinary messages, want 1 (self included for i=0)", i, ordinary)
		}
	}
	if e.MessagesSent() != int64(n) {
		t.Errorf("MessagesSent = %d, want %d", e.MessagesSent(), n)
	}
}

func TestTimerFiresAtPhysicalInverse(t *testing.T) {
	// A clock running at rate 2 reaches physical time 10 at real time 5.
	rec := &recorder{}
	rec.onStart = func(ctx *Context) { ctx.SetTimer(10, "tick") }
	e, err := New(Config{
		Procs:   []Process{rec},
		Clocks:  []clock.Clock{clock.Linear(0, 2)},
		StartAt: starts(1, 0),
		Delay:   ConstantDelay{Delta: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != 2 {
		t.Fatalf("got %d messages, want START + TIMER", len(rec.got))
	}
	tm := rec.got[1]
	if tm.Kind != KindTimer || tm.Payload != "tick" {
		t.Fatalf("second message = %+v, want TIMER tick", tm)
	}
	if math.Abs(float64(tm.DeliverAt-5)) > 1e-9 {
		t.Errorf("TIMER at %v, want 5", tm.DeliverAt)
	}
}

func TestTimerInThePastIsDropped(t *testing.T) {
	rec := &recorder{}
	rec.onStart = func(ctx *Context) { ctx.SetTimer(ctx.PhysNow()-1, nil) }
	e, err := New(Config{
		Procs:   []Process{rec},
		Clocks:  []clock.Clock{clock.Linear(0, 1)},
		StartAt: starts(1, 5),
		Delay:   ConstantDelay{Delta: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != 1 {
		t.Fatalf("got %d messages, want only START (timer dropped)", len(rec.got))
	}
	if e.TimersLapsed() != 1 {
		t.Errorf("TimersLapsed = %d, want 1", e.TimersLapsed())
	}
}

// TestTimerOrderedAfterOrdinaryAtSameInstant checks execution property 4: an
// ordinary message arriving at exactly the timer's real time is delivered
// first ("just under the wire").
func TestTimerOrderedAfterOrdinaryAtSameInstant(t *testing.T) {
	// Process 1 sets a timer for physical time 2 (real time 2). Process 0
	// sends process 1 a message at time 1 with delay 1: arrival also at 2.
	// Even though the timer is enqueued first, the ordinary message must be
	// delivered first.
	r0 := &recorder{}
	r1 := &recorder{}
	r1.onStart = func(ctx *Context) { ctx.SetTimer(2, nil) }
	r0.onStart = func(ctx *Context) { ctx.Send(1, "x") }
	e, err := New(Config{
		Procs:   []Process{r0, r1},
		Clocks:  perfectClocks(2),
		StartAt: []clock.Real{1, 0}, // p1 sets timer at t=0; p0 sends at t=1
		Delay:   ConstantDelay{Delta: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for _, m := range r1.got {
		kinds = append(kinds, m.Kind)
	}
	want := []Kind{KindStart, KindOrdinary, KindTimer}
	if len(kinds) != len(want) {
		t.Fatalf("process 1 received %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("process 1 received %v, want %v", kinds, want)
		}
	}
	if r1.got[1].DeliverAt != r1.got[2].DeliverAt {
		t.Fatal("test setup broken: ordinary and timer not at same instant")
	}
}

func TestRunHorizonAndResume(t *testing.T) {
	rec := &recorder{}
	rec.onStart = func(ctx *Context) {
		ctx.SetTimer(5, nil)
		ctx.SetTimer(15, nil)
	}
	e, err := New(Config{
		Procs:   []Process{rec},
		Clocks:  perfectClocks(1),
		StartAt: starts(1, 0),
		Delay:   ConstantDelay{Delta: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != 2 {
		t.Fatalf("after horizon 10: %d messages, want 2", len(rec.got))
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want horizon 10", e.Now())
	}
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != 3 {
		t.Fatalf("after horizon 20: %d messages, want 3", len(rec.got))
	}
}

func TestStepLimit(t *testing.T) {
	// A process that reschedules itself forever must trip the step limit.
	var ping func(ctx *Context)
	rec := &recorder{}
	ping = func(ctx *Context) { ctx.SetTimer(ctx.PhysNow()+0.001, nil) }
	rec.onStart = ping
	e, err := New(Config{
		Procs:    []Process{&timerLoop{}},
		Clocks:   perfectClocks(1),
		StartAt:  starts(1, 0),
		Delay:    ConstantDelay{Delta: 0.01},
		MaxSteps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1e9); err == nil {
		t.Error("expected step-limit error")
	}
	_ = rec
}

type timerLoop struct{}

func (l *timerLoop) Receive(ctx *Context, _ Message) { ctx.SetTimer(ctx.PhysNow()+0.001, nil) }

func TestLocalTime(t *testing.T) {
	rec := &recorder{corr: 7}
	e, err := New(Config{
		Procs:   []Process{rec, &timerLoop{}},
		Clocks:  []clock.Clock{clock.Linear(0, 1), clock.Linear(0, 1)},
		StartAt: starts(2, 1000), // nothing runs
		Delay:   ConstantDelay{Delta: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	lt, ok := e.LocalTime(0, 3)
	if !ok || lt != 10 {
		t.Errorf("LocalTime(0,3) = %v,%v, want 10,true", lt, ok)
	}
	if _, ok := e.LocalTime(1, 3); ok {
		t.Error("LocalTime should report false for a process without Corr")
	}
}

func TestNonfaultyIDs(t *testing.T) {
	e, err := New(Config{
		Procs:   []Process{&recorder{}, &recorder{}, &recorder{}},
		Clocks:  perfectClocks(3),
		StartAt: starts(3, 0),
		Delay:   ConstantDelay{Delta: 0.01},
		Faulty:  []bool{false, true, false},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := e.NonfaultyIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Errorf("NonfaultyIDs = %v", ids)
	}
	if !e.Faulty(1) || e.Faulty(0) {
		t.Error("Faulty flags wrong")
	}
}

type annObserver struct {
	anns []Annotation
	pre  int
	post int
}

func (o *annObserver) Sample(_ *Engine, pre bool) {
	if pre {
		o.pre++
	} else {
		o.post++
	}
}
func (o *annObserver) OnAnnotation(_ *Engine, a Annotation) { o.anns = append(o.anns, a) }

func TestAnnotationsAndSampling(t *testing.T) {
	rec := &recorder{}
	rec.onStart = func(ctx *Context) {
		ctx.Annotate("mark", 42)
		rec.corr += 1e-3
	}
	e, err := New(Config{
		Procs:   []Process{rec},
		Clocks:  perfectClocks(1),
		StartAt: starts(1, 3),
		Delay:   ConstantDelay{Delta: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := &annObserver{}
	e.Observe(obs)
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(obs.anns) != 1 {
		t.Fatalf("annotations = %v, want one", obs.anns)
	}
	a := obs.anns[0]
	if a.Tag != "mark" || a.Value != 42 || a.Proc != 0 || a.At != 3 {
		t.Errorf("annotation = %+v", a)
	}
	// The START changes the correction: one pre and one post sample around
	// it, plus one at Run entry and one at the horizon.
	if obs.post != 3 || obs.pre != 1 {
		t.Errorf("samples pre=%d post=%d, want 1/3", obs.pre, obs.post)
	}
}

func TestDelayModelsWithinBounds(t *testing.T) {
	rng := NewRNG(1)
	pick := NewRNG(2)
	models := []DelayModel{
		ConstantDelay{Delta: 0.01},
		UniformDelay{Delta: 0.01, Eps: 0.002},
		ExtremalDelay{Delta: 0.01, Eps: 0.002},
		PerLinkDelay{Delta: 0.01, Eps: 0.002, Seed: 3},
	}
	for _, m := range models {
		delta, eps := m.Bounds()
		for i := 0; i < 200; i++ {
			from, to := ProcID(pick.Intn(8)), ProcID(pick.Intn(8))
			d := m.Sample(from, to, clock.Real(pick.Float64()*100), &rng)
			if d < delta-eps-1e-12 || d > delta+eps+1e-12 {
				t.Fatalf("%T: delay %v outside [%v, %v]", m, d, delta-eps, delta+eps)
			}
		}
	}
}

func TestPerLinkDelayDeterministic(t *testing.T) {
	m := PerLinkDelay{Delta: 0.01, Eps: 0.002, Seed: 5}
	rng := NewRNG(0)
	a := m.Sample(1, 2, 0, &rng)
	b := m.Sample(1, 2, 99, &rng)
	if a != b {
		t.Error("per-link delay not stable across time")
	}
	c := m.Sample(2, 1, 0, &rng)
	if a == c {
		t.Error("per-link delay should be asymmetric in general")
	}
}

func TestExtremalDelayCustomSplit(t *testing.T) {
	m := ExtremalDelay{Delta: 0.01, Eps: 0.001, SlowTo: func(_, to ProcID) bool { return to == 3 }}
	rng := NewRNG(0)
	if got := m.Sample(0, 3, 0, &rng); math.Abs(got-0.011) > 1e-15 {
		t.Errorf("slow recipient delay = %v, want 0.011", got)
	}
	if got := m.Sample(0, 2, 0, &rng); math.Abs(got-0.009) > 1e-15 {
		t.Errorf("fast recipient delay = %v, want 0.009", got)
	}
}

// TestQueueOrderingProperty checks by property that pops come out sorted by
// (time, non-timer-first, seq).
func TestQueueOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// One sender whose keys are its bare send index.
		e := &Engine{senders: make([]sender, 1), sidxMax: 1 << 62}
		n := 2 + rng.Intn(50)
		for i := 0; i < n; i++ {
			k := KindOrdinary
			if rng.Intn(2) == 0 {
				k = KindTimer
			}
			e.push(Message{Kind: k, DeliverAt: clock.Real(rng.Intn(5))})
		}
		var last Message
		first := true
		for e.queue.heap.len() > 0 {
			m := e.queue.pop().msg
			if !first {
				if m.DeliverAt < last.DeliverAt {
					return false
				}
				if m.DeliverAt == last.DeliverAt && last.Kind == KindTimer && m.Kind != KindTimer {
					return false
				}
			}
			last, first = m, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEtherCollisions(t *testing.T) {
	// Buffer of 1, window 1ms: two arrivals within 1ms at the same receiver
	// lose the second copy; spaced arrivals survive.
	ch := NewEther(0.001, 1)
	if _, ok := ch.Route(0, 5, 0, 0.010); !ok {
		t.Fatal("first copy should be delivered")
	}
	if _, ok := ch.Route(1, 5, 0, 0.0105); ok {
		t.Fatal("colliding copy should be dropped")
	}
	if ch.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", ch.Dropped())
	}
	if _, ok := ch.Route(2, 5, 0.1, 0.010); !ok {
		t.Fatal("spaced copy should be delivered")
	}
	// Different receiver does not contend.
	if _, ok := ch.Route(1, 6, 0, 0.0105); !ok {
		t.Fatal("copy to different receiver should be delivered")
	}
}

func TestEtherLoopbackNeverContends(t *testing.T) {
	ch := NewEther(0.001, 1)
	if _, ok := ch.Route(0, 5, 0, 0.010); !ok {
		t.Fatal("first copy delivered")
	}
	if _, ok := ch.Route(5, 5, 0, 0.0101); !ok {
		t.Error("loopback should bypass the wire")
	}
}

func TestEtherBufferDepth(t *testing.T) {
	ch := NewEther(0.001, 3)
	delivered := 0
	for i := 0; i < 5; i++ {
		if _, ok := ch.Route(ProcID(i), 9, 0, 0.010+float64(i)*1e-5); ok {
			delivered++
		}
	}
	if delivered != 3 {
		t.Errorf("delivered %d of 5 simultaneous copies, want buffer depth 3", delivered)
	}
}

// TestEtherOutOfOrderArrival is the regression test for the double-sided
// contention window: a copy routed first but scheduled to arrive *later*
// must not evict a copy arriving now — the drop-new rule counts only
// datagrams already in the buffer, i.e. arrivals within (a−Window, a].
func TestEtherOutOfOrderArrival(t *testing.T) {
	// Window 6, buffer 1. Copy A is routed first and arrives at t=10; copy B
	// is routed second but arrives at t=5. A is 5 > 0 away from B's arrival,
	// inside the old double-width window (−1, 11] but outside the documented
	// (−1, 5] one: B must be delivered.
	ch := NewEther(6, 1)
	if _, ok := ch.Route(0, 2, 0, 10); !ok {
		t.Fatal("copy A should be delivered into an empty buffer")
	}
	if _, ok := ch.Route(1, 2, 0, 5); !ok {
		t.Error("copy B arrives before A: a datagram not yet arrived must not evict it")
	}
	// The documented semantics still drop a copy contending with an arrival
	// inside its own trailing window: C arrives at t=9, with B at 5 > 9−6.
	if _, ok := ch.Route(3, 2, 0, 9); ok {
		t.Error("copy C should be dropped: B already sits in its (a−Window, a] window and the buffer holds 1")
	}
	if got := ch.Dropped(); got != 1 {
		t.Errorf("Dropped() = %d, want 1", got)
	}
}

// TestContextRandDistinctWithinReceive is the regression test for the old
// Context.Rand bug: the generator was re-seeded from (pid, step count) on
// every call, so two draws within one Receive returned identical values.
func TestContextRandDistinctWithinReceive(t *testing.T) {
	var draws []float64
	rec := &recorder{}
	rec.onStart = func(ctx *Context) {
		draws = append(draws, ctx.Rand().Float64(), ctx.Rand().Float64())
	}
	e, err := New(Config{
		Procs:   []Process{rec},
		Clocks:  perfectClocks(1),
		StartAt: starts(1, 0),
		Delay:   ConstantDelay{Delta: 0.01},
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(draws) != 2 {
		t.Fatalf("recorded %d draws, want 2", len(draws))
	}
	if draws[0] == draws[1] {
		t.Fatalf("two Rand() draws within one Receive are identical (%v): per-call re-seeding bug is back", draws[0])
	}
}

// TestContextRandDeterministicAndPerProcess checks the replacement contract:
// streams depend only on (engine seed, pid) — reproducible across runs,
// separated across processes.
func TestContextRandDeterministicAndPerProcess(t *testing.T) {
	run := func(seed int64) [][]float64 {
		n := 3
		out := make([][]float64, n)
		procs := make([]Process, n)
		for i := 0; i < n; i++ {
			i := i
			r := &recorder{}
			r.onStart = func(ctx *Context) {
				for k := 0; k < 4; k++ {
					out[i] = append(out[i], ctx.Rand().Float64())
				}
			}
			procs[i] = r
		}
		e, err := New(Config{
			Procs:   procs,
			Clocks:  perfectClocks(n),
			StartAt: starts(n, 0),
			Delay:   ConstantDelay{Delta: 0.01},
			Seed:    seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(1); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(11), run(11)
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				t.Fatalf("process %d draw %d differs across identical runs", i, k)
			}
		}
	}
	if a[0][0] == a[1][0] && a[0][1] == a[1][1] {
		t.Error("processes 0 and 1 share a stream")
	}
	c := run(12)
	if a[0][0] == c[0][0] && a[0][1] == c[0][1] {
		t.Error("engine seed does not reach per-process streams")
	}
}

// TestObserveClassification checks the registration-time split: a type
// implementing only some observer interfaces is called back only on those,
// and registering a type implementing none is a named error instead of
// silently observing nothing — time-major or windowed.
func TestObserveClassification(t *testing.T) {
	rec := &recorder{}
	rec.onStart = func(ctx *Context) { ctx.Annotate("a", 1) }
	e, err := New(Config{
		Procs:   []Process{rec},
		Clocks:  perfectClocks(1),
		StartAt: starts(1, 0),
		Delay:   ConstantDelay{Delta: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := &annObserver{}
	if err := e.Observe(obs); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1} {
		r, err := New(Config{
			Procs: []Process{&recorder{}}, Clocks: perfectClocks(1), StartAt: starts(1, 0),
			Delay: ConstantDelay{Delta: 0.01}, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Observe(42); err == nil || !strings.Contains(err.Error(), "Observe(int)") {
			t.Errorf("shards=%d: Observe of a non-observer: %v, want an error naming the type", shards, err)
		}
	}
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(obs.anns) != 1 || obs.post == 0 {
		t.Errorf("classified observer missed callbacks: anns=%d post=%d", len(obs.anns), obs.post)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindOrdinary: "ORDINARY",
		KindStart:    "START",
		KindTimer:    "TIMER",
		Kind(9):      "Kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind.String() = %q, want %q", got, want)
		}
	}
}

func TestLossyLinks(t *testing.T) {
	ch := NewLossyLinks(Link{From: 0, To: 1}).BreakBothWays(2, 3)
	if _, ok := ch.Route(0, 1, 0, 0.01); ok {
		t.Error("dead link 0→1 delivered")
	}
	if _, ok := ch.Route(1, 0, 0, 0.01); !ok {
		t.Error("reverse of a one-way dead link should deliver")
	}
	if _, ok := ch.Route(2, 3, 0, 0.01); ok {
		t.Error("dead link 2→3 delivered")
	}
	if _, ok := ch.Route(3, 2, 0, 0.01); ok {
		t.Error("dead link 3→2 delivered")
	}
	if at, ok := ch.Route(4, 5, 1, 0.01); !ok || at != 1.01 {
		t.Errorf("healthy link: at=%v ok=%v", at, ok)
	}
	// Loopback always works, even if configured dead.
	ch.Dead[Link{From: 6, To: 6}] = true
	if _, ok := ch.Route(6, 6, 0, 0.01); !ok {
		t.Error("loopback dropped")
	}
}

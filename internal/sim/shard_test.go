package sim

import (
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// shardBeacon is the sharded-mode differential process: a self-sustaining
// broadcaster that folds every delivery into an order-sensitive FNV digest.
// Because the fold is order-sensitive, two executions produce the same
// digest only if every process saw the same deliveries in the same order —
// a window-boundary or sequencing bug cannot hide behind commutativity.
type shardBeacon struct {
	period  clock.Local
	corr    clock.Local
	digest  uint64
	count   int
	mute    bool // fold deliveries but never send (zero-sender topology)
	unicast bool // fan out as a Send loop over q = 0..n−1
}

func (b *shardBeacon) Corr() clock.Local { return b.corr }

func (b *shardBeacon) Receive(ctx *Context, m Message) {
	h := b.digest
	if h == 0 {
		h = 1469598103934665603 // FNV offset basis
	}
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	mix(uint64(m.From))
	mix(uint64(m.Kind))
	mix(math.Float64bits(float64(m.DeliverAt)))
	mix(math.Float64bits(float64(m.SentAt)))
	b.digest = h
	b.count++
	if m.Kind == KindOrdinary || b.mute {
		return
	}
	if b.unicast {
		for q := 0; q < ctx.N(); q++ {
			ctx.Send(ProcID(q), nil)
		}
	} else {
		ctx.Broadcast(nil)
	}
	ctx.SetTimer(ctx.PhysNow()+b.period, nil)
}

// shardWorkload builds n shardBeacons on drifting clocks with distinct
// start times.
func shardWorkload(n int, delay DelayModel, ch Channel) Config {
	procs := make([]Process, n)
	clocks := make([]clock.Clock, n)
	starts := make([]clock.Real, n)
	drift := clock.ConstantDrift{RhoBound: 1e-5}
	for i := range procs {
		procs[i] = &shardBeacon{period: 1e-3, corr: clock.Local(i) * 1e-7}
		clocks[i] = drift.Build(i, n)
		starts[i] = clock.Real(i) * 1.37e-6
	}
	return Config{
		Procs:   procs,
		Clocks:  clocks,
		StartAt: starts,
		Delay:   delay,
		Channel: ch,
		Seed:    11,
	}
}

// shardDigests runs cfg across k shards to the horizon and returns the
// per-process (digest, count) trace plus the engine totals and the spread
// at every sample point.
type shardRun struct {
	digests []uint64
	counts  []int
	sent    int64
	lost    int64
	steps   int
	windows int
	spreads []clock.Local
}

func runOnShards(t *testing.T, cfg Config, k int, horizon clock.Real) *shardRun {
	t.Helper()
	cfg.Shards = k
	se, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &shardRun{}
	if err := se.Observe(samplerFunc(func(e *Engine) {
		lo, hi, _ := e.LocalTimeSpread(e.Now())
		r.spreads = append(r.spreads, hi-lo)
	})); err != nil {
		t.Fatal(err)
	}
	if err := se.Run(horizon); err != nil {
		t.Fatal(err)
	}
	for _, p := range cfg.Procs {
		b := p.(*shardBeacon)
		r.digests = append(r.digests, b.digest)
		r.counts = append(r.counts, b.count)
	}
	r.sent, r.lost = se.MessagesSent(), se.MessagesLost()
	r.steps, r.windows = se.Steps(), se.Windows()
	return r
}

// samplerFunc adapts a function to Sampler.
type samplerFunc func(e *Engine)

func (f samplerFunc) Sample(e *Engine, _ bool) { f(e) }

// equalShardRuns compares two runs field by field and names the first
// divergence. (Each runOnShards call builds a fresh Config — shardBeacon
// digests are per-run state.)
func equalShardRuns(a, b *shardRun) (string, bool) {
	if a.sent != b.sent || a.lost != b.lost || a.steps != b.steps || a.windows != b.windows {
		return "engine totals", false
	}
	if len(a.spreads) != len(b.spreads) {
		return "spread trace length", false
	}
	for i := range a.spreads {
		if a.spreads[i] != b.spreads[i] {
			return "spread trace", false
		}
	}
	for i := range a.digests {
		if a.digests[i] != b.digests[i] || a.counts[i] != b.counts[i] {
			return "per-process delivery digest", false
		}
	}
	return "", true
}

// TestShardedDeterminism is the determinism oracle of the sharded engine:
// the same system run across 1, 2, 4, 8 and 16 shards must produce identical
// per-process delivery digests, engine totals, window counts, and sampled
// spread traces. Per-sender RNG streams and packed sequence
// keys are exactly what this pins — any leak of shard-local state into
// delay sampling or tie-break order diverges the digests. The cut sequence
// is defined by the global minimum pending time alone.
func TestShardedDeterminism(t *testing.T) {
	const n = 64
	horizon := clock.Real(0.012)
	delay := UniformDelay{Delta: 4e-4, Eps: 1e-4}
	base := runOnShards(t, shardWorkload(n, delay, nil), 1, horizon)
	if base.steps < 5*n*n {
		t.Fatalf("only %d steps — not a meaningful workload", base.steps)
	}
	for _, k := range []int{2, 4, 8, 16} {
		got := runOnShards(t, shardWorkload(n, delay, nil), k, horizon)
		if what, ok := equalShardRuns(base, got); !ok {
			t.Fatalf("k=%d diverges from k=1 in %s", k, what)
		}
	}
}

// TestShardedWindowAccounting pins the one-window-per-barrier loop's counters:
// the window count is a property of the execution's time structure, not of
// the partition; every window is one barrier and none is batched; and the
// samplers fire at Run entry and at the horizon (which here sits in the
// quiet gap after round 10, past the last cut) only, as on the time-major
// engine: the beacons change no correction and their clocks never bend, so
// no cut is a sample point. It runs through the
// NewSharded shim the frozen benchmark builds with, and holds the shim to New
// with Config.Shards = k: equal steps and windows.
func TestShardedWindowAccounting(t *testing.T) {
	const n = 64
	const horizon = clock.Real(0.0108)
	workload := func() Config { return shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil) }
	windows := 0
	for _, k := range []int{1, 2, 4, 8} {
		se, err := NewSharded(workload(), k)
		if err != nil {
			t.Fatal(err)
		}
		var at []clock.Real
		if err := se.Observe(samplerFunc(func(e *Engine) { at = append(at, e.Now()) })); err != nil {
			t.Fatal(err)
		}
		if err := se.Run(horizon); err != nil {
			t.Fatal(err)
		}
		st := se.Stats()
		if st.Windows != se.Windows() || st.Barriers != st.Windows || st.BatchedWindows != 0 {
			t.Fatalf("k=%d: Windows()=%d, stats %+v; want every window one barrier, none batched", k, se.Windows(), st)
		}
		if k == 1 {
			windows = st.Windows
		} else if st.Windows != windows {
			t.Fatalf("k=%d ran %d windows, k=1 ran %d", k, st.Windows, windows)
		}
		if len(at) != 2 || at[0] != 0 || at[1] != horizon {
			t.Fatalf("k=%d: samples at %v over %d windows; want one at Run entry (0) and one at the horizon %v", k, at, st.Windows, horizon)
		}
		cfg := workload()
		cfg.Shards = k
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(horizon); err != nil {
			t.Fatal(err)
		}
		if e.Steps() != se.Steps() || e.Windows() != se.Windows() {
			t.Fatalf("k=%d: New ran %d steps in %d windows, NewSharded %d in %d", k, e.Steps(), e.Windows(), se.Steps(), se.Windows())
		}
	}
	if windows < 20 {
		t.Fatalf("only %d windows — not a meaningful run", windows)
	}
}

// bomb is a shardBeacon that panics on its first delivery; slowpoke is one
// whose every Receive takes a millisecond of wall time and counts itself in
// and out, so a test can tell whether any is still running.
type bomb struct{ shardBeacon }

func (*bomb) Receive(*Context, Message) { panic("boom") }

type slowpoke struct {
	shardBeacon
	running *atomic.Int32
}

func (p *slowpoke) Receive(ctx *Context, m Message) {
	p.running.Add(1)
	defer p.running.Add(-1)
	time.Sleep(time.Millisecond)
	p.shardBeacon.Receive(ctx, m)
}

// TestShardedPanicNamesShard is the sharded half of the robustness table's
// "panicking automaton" row: a process that panics in Receive on shard 2 of 4
// makes Run return an error naming the shard, the panic value and the stack —
// promptly, and only after every shard has joined. The bomb goes off at its
// START while its 12 siblings on the other shards each sleep through theirs in
// the same window, so a window loop that returned on the first failure without
// joining the rest would come back with a Receive still running.
func TestShardedPanicNamesShard(t *testing.T) {
	const n, k, victim = 16, 4, 8 // shard 2 owns 8…11
	cfg := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	var running atomic.Int32
	for i := range cfg.Procs {
		cfg.Procs[i] = &slowpoke{shardBeacon: shardBeacon{period: 1e-3}, running: &running}
	}
	cfg.Procs[victim] = &bomb{}
	cfg.Shards = k
	se, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() { done <- se.Run(0.01) }()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after a shard panicked")
	}
	if r := running.Load(); r != 0 {
		t.Fatalf("Run returned with %d Receive calls still running: the window did not join every shard", r)
	}
	if err == nil {
		t.Fatal("Run = nil after a process panicked")
	}
	for _, want := range []string{"sim: shard 2 panicked: boom", "(*bomb).Receive"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error does not contain %q:\n%v", want, err)
		}
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines before Run, %d still alive a second after it returned", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardedStepLimit: MaxSteps running out in the middle of a window — the
// second one, where every process receives a round of n copies — ends the run
// with the step-limit error, on one shard and on four.
func TestShardedStepLimit(t *testing.T) {
	const n, limit = 64, 500
	for _, k := range []int{1, 4} {
		cfg := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
		cfg.MaxSteps = limit
		cfg.Shards = k
		se, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = se.Run(0.012)
		if err == nil || !strings.Contains(err.Error(), "sim: step limit 500 exceeded") {
			t.Fatalf("k=%d: Run = %v; want the step-limit error", k, err)
		}
		if se.Windows() == 0 || se.Steps() < limit {
			t.Fatalf("k=%d: failed after %d windows and %d steps; want the limit hit inside a later window", k, se.Windows(), se.Steps())
		}
	}
}

// peeker is a shardBeacon that reads the engine before every step.
type peeker struct {
	shardBeacon
	peek func()
}

func (p *peeker) Receive(ctx *Context, m Message) {
	p.peek()
	p.shardBeacon.Receive(ctx, m)
}

// TestShardedMidReceiveRead: the shared delivery loop marks the acting process
// on partitions too, whose clock table has no correction mirror to re-read;
// a table read made inside a Receive there must reload every row, not index
// the missing mirror.
func TestShardedMidReceiveRead(t *testing.T) {
	const n = 4
	cfg := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	var se *Engine
	reads := 0
	cfg.Procs[0] = &peeker{shardBeacon: shardBeacon{period: 1e-3}, peek: func() {
		e := se.Shard(0)
		if _, _, count := e.LocalTimeSpread(e.Now()); count != n {
			t.Errorf("spread over %d processes, want %d", count, n)
		}
		reads++
	}}
	cfg.Shards = 1
	se, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Run(0.003); err != nil {
		t.Fatal(err)
	}
	if reads < 2 {
		t.Fatalf("only %d mid-Receive reads", reads)
	}
}

// TestShardedLossyAccounting repeats the determinism oracle with dead links
// in the mesh: the per-copy lost/sent split must be shard-count-invariant
// and the lossy path must actually fire.
func TestShardedLossyAccounting(t *testing.T) {
	const n = 48
	ch := LossyLinks{}.BreakBothWays(0, 47).BreakBothWays(3, 30)
	delay := UniformDelay{Delta: 4e-4, Eps: 1e-4}
	base := runOnShards(t, shardWorkload(n, delay, ch), 1, 0.012)
	if base.lost == 0 {
		t.Fatal("no copies lost — dead links never exercised")
	}
	for _, k := range []int{3, 8} {
		got := runOnShards(t, shardWorkload(n, delay, ch), k, 0.012)
		if what, ok := equalShardRuns(base, got); !ok {
			t.Fatalf("k=%d diverges from k=1 in %s", k, what)
		}
	}
}

// TestShardedMatchesSequential is the engine differential: both engines
// number sends and draw delays alike, so the sequential engine and the
// sharded one over any number of shards run one execution on every delay
// model — equal per-process delivery digests and equal sent/lost/step
// totals. k = 1 holds the sequential Run and a one-shard window run — the
// same drain bounded two ways — to one execution; k > 1 adds the links. The
// tied row starts every process at one instant under a constant delay, so
// whole rounds of copies land together and the packed keys alone order them.
// The unicast rows fan out as n Sends, so every copy is a one-recipient
// send, filed locally or onto a link by the same path as a broadcast's.
func TestShardedMatchesSequential(t *testing.T) {
	const n = 40
	horizon := clock.Real(0.012)
	cut := LossyLinks{}.BreakBothWays(3, 30)
	type row struct {
		name    string
		delay   DelayModel
		ch      Channel
		tied    bool
		unicast bool
	}
	var rows []row
	for _, d := range []struct {
		name  string
		delay DelayModel
	}{
		{"uniform", UniformDelay{Delta: 4e-4, Eps: 1e-4}},
		{"perlink", PerLinkDelay{Delta: 4e-4, Eps: 1e-4, Seed: 3}},
	} {
		for _, unicast := range []bool{false, true} {
			suffix := ""
			if unicast {
				suffix = "/unicast"
			}
			rows = append(rows,
				row{d.name + "/fullmesh" + suffix, d.delay, nil, false, unicast},
				row{d.name + "/lossy" + suffix, d.delay, cut, false, unicast})
		}
	}
	rows = append(rows, row{"tied", ConstantDelay{Delta: 4e-4}, nil, true, false})
	workload := func(r row) Config {
		cfg := shardWorkload(n, r.delay, r.ch)
		if r.tied {
			cfg.StartAt = starts(n, 0)
		}
		for _, p := range cfg.Procs {
			p.(*shardBeacon).unicast = r.unicast
		}
		return cfg
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			cfg := workload(r)
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(horizon); err != nil {
				t.Fatal(err)
			}
			seq := &shardRun{sent: eng.MessagesSent(), lost: eng.MessagesLost(), steps: eng.Steps()}
			for _, p := range cfg.Procs {
				b := p.(*shardBeacon)
				seq.digests = append(seq.digests, b.digest)
				seq.counts = append(seq.counts, b.count)
			}
			if (r.ch != nil) != (seq.lost > 0) {
				t.Fatalf("%d copies lost on channel %v", seq.lost, r.ch)
			}
			for _, k := range []int{1, 2, 4, 16} {
				sh := runOnShards(t, workload(r), k, horizon)
				if seq.sent != sh.sent || seq.lost != sh.lost || seq.steps != sh.steps {
					t.Fatalf("k=%d totals diverge: sequential sent=%d lost=%d steps=%d, sharded sent=%d lost=%d steps=%d",
						k, seq.sent, seq.lost, seq.steps, sh.sent, sh.lost, sh.steps)
				}
				for i := range seq.digests {
					if seq.digests[i] != sh.digests[i] || seq.counts[i] != sh.counts[i] {
						t.Fatalf("k=%d process %d diverges: sequential (digest=%x count=%d), sharded (digest=%x count=%d)",
							k, i, seq.digests[i], seq.counts[i], sh.digests[i], sh.counts[i])
					}
				}
			}
		})
	}
}

// idler folds deliveries like a shardBeacon but never sends: all it keeps
// pending is one timer, far ahead.
type idler struct {
	shardBeacon
	far clock.Local
}

func (p *idler) Receive(ctx *Context, m Message) {
	p.mute = true
	p.shardBeacon.Receive(ctx, m)
	if m.Kind != KindOrdinary {
		ctx.SetTimer(ctx.PhysNow()+p.far, nil)
	}
}

// TestShardedAdoptionBeforeWindow is the regression test for a scheduler
// that moved when asked the time: a shard whose only pending events are far
// timers is asked for its next event time at every window end, and then, at
// the head of the next window, files copies that land long before those
// timers. peekTime must open no slot — the copies are filed ahead of the
// timers like any other entry (there is no ordered-insert path for them to
// fall back on) — and every process must see exactly the sequential engine's
// deliveries, in its order.
func TestShardedAdoptionBeforeWindow(t *testing.T) {
	const n = 8
	horizon := clock.Real(0.12)
	delay := PerLinkDelay{Delta: 4e-4, Eps: 1e-4, Seed: 5}
	workload := func() Config {
		cfg := shardWorkload(n, delay, nil)
		for i := n / 2; i < n; i++ { // shard 1 of 2: idlers
			cfg.Procs[i] = &idler{far: 50e-3}
		}
		cfg.EventHint = 4 * calActivateLen // the calendar is on from the first event, on both shards
		return cfg
	}
	digests := func(cfg Config) (ds []uint64, counts []int) {
		for _, p := range cfg.Procs {
			b, ok := p.(*shardBeacon)
			if !ok {
				b = &p.(*idler).shardBeacon
			}
			ds, counts = append(ds, b.digest), append(counts, b.count)
		}
		return ds, counts
	}

	seqCfg := workload()
	eng, err := New(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(horizon); err != nil {
		t.Fatal(err)
	}
	wantD, wantC := digests(seqCfg)

	cfg := workload()
	cfg.Shards = 2
	se, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At every cut (before the next window, whose head files the copies
	// shard 0 sent shard 1): when shard 1 is to adopt copies that land well
	// before its far timers, no window may be open on those timers, and
	// asking for the time must leave the scheduler where it is. The run is
	// Run's window loop, stepped here to look between the windows.
	adoptedEarlier := 0
	atCut := func() {
		q, l := &se.Shard(1).queue, &se.Shard(1).in[0]
		opened, cur := q.opened, q.cur
		next, ok := q.peekTime()
		if q.opened != opened || q.cur != cur {
			t.Errorf("peekTime moved the scheduler: opened %d → %d, open slot %d → %d", opened, q.opened, cur, q.cur)
		}
		if len(l.ents) > 0 && (!ok || clock.Real(l.min) < next) {
			next, ok = clock.Real(l.min), true
		}
		if !ok {
			return
		}
		if q.wpos < len(q.win) {
			if head := clock.Real(q.win[q.wpos].at); head-next > 5e-3 {
				t.Errorf("cut at %v: a window is open on the timer at %v while copies landing at %v are pending", se.Now(), head, next)
			}
		} else if top := q.heap.peek(); top != nil && (q.binned > 0 || len(l.ents) > 0) && clock.Real(top.at)-next > 5e-3 {
			adoptedEarlier++
		}
	}
	se.enter()
	for {
		more, err := se.window(horizon)
		if err != nil {
			t.Fatal(err)
		}
		atCut()
		if !more {
			break
		}
	}
	se.fileAll()
	if adoptedEarlier < 10 {
		t.Fatalf("only %d cuts left shard 1 with adopted copies binned ahead of its own far timers — the scenario did not occur", adoptedEarlier)
	}
	gotD, gotC := digests(cfg)
	for i := range wantD {
		if gotD[i] != wantD[i] || gotC[i] != wantC[i] {
			t.Fatalf("process %d diverges: sequential (digest=%x count=%d), sharded (digest=%x count=%d)",
				i, wantD[i], wantC[i], gotD[i], gotC[i])
		}
	}
	if wantC[n-1] < 100 {
		t.Fatalf("idler %d saw only %d deliveries", n-1, wantC[n-1])
	}
}

// undershoot is a delay model that breaks its own declared lower bound for
// one recipient.
type undershoot struct {
	UniformDelay
	to ProcID
}

func (d undershoot) SampleAll(from ProcID, n int, at clock.Real, rng *RNG, out []float64) {
	d.UniformDelay.SampleAll(from, n, at, rng, out)
	out[d.to] = 0.1 * (d.Delta - d.Eps)
}

func (d undershoot) Sample(from, to ProcID, at clock.Real, rng *RNG) float64 {
	if to == d.to {
		return 0.1 * (d.Delta - d.Eps)
	}
	return d.UniformDelay.Sample(from, to, at, rng)
}

// TestShardedLowerBoundEveryCopy: the lookahead is only as good as the delay
// model's declared lower bound, so the window cut checks it — over every
// cross-shard copy, not just the first of each fan-out's (unsorted) share,
// and over unicasts, which ride the same links. A model that undershoots δ−ε
// for one recipient in the middle of a remote shard's block must end the run
// with the link's named error, never a reordered execution.
func TestShardedLowerBoundEveryCopy(t *testing.T) {
	const n, victim = 8, 6 // shard 1 of 2 owns 4…7
	for _, unicast := range []bool{false, true} {
		cfg := shardWorkload(n, undershoot{UniformDelay{Delta: 4e-4, Eps: 1e-4}, victim}, nil)
		if unicast {
			for i := range cfg.Procs {
				cfg.Procs[i] = &testBeacon{period: 1e-3, unicast: true}
			}
		}
		cfg.Shards = 2
		se, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = se.Run(0.01)
		if err == nil || !strings.Contains(err.Error(), "violated its declared lower bound") || !strings.Contains(err.Error(), "→6 ") {
			t.Fatalf("unicast=%v: Run = %v; want the lower-bound error naming a copy to process %d", unicast, err, victim)
		}
	}
}

// TestNewShardedValidation walks New's windowed rejection table through the
// NewSharded shim (New with Shards = k, plus its own refusal of k = 0): every
// unsupported configuration must fail loudly at build time, never silently
// fall back to wrong parallel semantics.
func TestNewShardedValidation(t *testing.T) {
	delay := UniformDelay{Delta: 4e-4, Eps: 1e-4}
	cases := []struct {
		name string
		cfg  Config
		k    int
		want string
	}{
		{"zero shards", shardWorkload(8, delay, nil), 0, "shards"},
		{"more shards than processes", shardWorkload(8, delay, nil), 9, "shards"},
		{"adversary", func() Config {
			c := shardWorkload(8, delay, nil)
			c.Adversary = &pendingSnapshotter{trigger: 1}
			return c
		}(), 2, "adversary"},
		{"stateful channel", shardWorkload(8, delay, &Ether{}), 2, "stateless channel"},
		{"zero lookahead", shardWorkload(8, UniformDelay{Delta: 1e-4, Eps: 1e-4}, nil), 2, "lookahead"},
		// The sequential engine's cap and error (TestNewValidation); nil
		// procs are fine, no engine is built.
		{"over the process cap", Config{Procs: make([]Process, maxProcs+1), Delay: delay}, 2, ErrTooManyProcs.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewSharded(tc.cfg, tc.k)
			if err == nil {
				t.Fatalf("accepted invalid configuration")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// annotBeacon is a shardBeacon that also emits an annotation on every
// delivery, exercising the sharded annotation capture/merge path.
type annotBeacon struct {
	shardBeacon
}

func (b *annotBeacon) Receive(ctx *Context, m Message) {
	b.shardBeacon.Receive(ctx, m)
	ctx.Annotate("tick", float64(b.count))
}

// annotWorkload is shardWorkload with annotating beacons.
func annotWorkload(n int, delay DelayModel) Config {
	cfg := shardWorkload(n, delay, nil)
	for i := range cfg.Procs {
		b := cfg.Procs[i].(*shardBeacon)
		cfg.Procs[i] = &annotBeacon{shardBeacon: *b}
	}
	return cfg
}

// windowProbe records everything the sharded observer path hands it.
type windowProbe struct {
	samples []float64
	annots  []Annotation
}

func (p *windowProbe) Sample(e *Engine, _ bool) {
	lo, hi, _ := e.LocalTimeSpread(e.Now())
	p.samples = append(p.samples, float64(hi-lo))
}

func (p *windowProbe) OnAnnotation(_ *Engine, a Annotation) {
	p.annots = append(p.annots, a)
}

// deliverySpy implements only the per-delivery interface, which sharded
// mode must reject.
type deliverySpy struct{}

func (deliverySpy) OnDeliver(*Engine, Message) {}

// TestShardedObservers pins the windowed observer support: Sampler and
// AnnotationSink observers see, for every shard count, exactly what they see
// on the time-major engine — the same samples and the annotations in its
// order — and per-delivery observers are rejected with a useful error.
func TestShardedObservers(t *testing.T) {
	delay := UniformDelay{Delta: 4e-4, Eps: 1e-4}
	const n = 48
	run := func(k int) *windowProbe {
		cfg := annotWorkload(n, delay)
		cfg.Shards = k
		se, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := &windowProbe{}
		if err := se.Observe(p); err != nil {
			t.Fatal(err)
		}
		if err := se.Run(0.01); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := run(0)
	if len(base.samples) == 0 || len(base.annots) == 0 {
		t.Fatalf("observer saw nothing: %d samples, %d annotations", len(base.samples), len(base.annots))
	}
	for _, k := range []int{1, 2, 6, 8} {
		got := run(k)
		if len(got.samples) != len(base.samples) {
			t.Fatalf("k=%d: %d samples, time-major %d", k, len(got.samples), len(base.samples))
		}
		for i := range base.samples {
			if got.samples[i] != base.samples[i] {
				t.Fatalf("k=%d sample %d diverges: %v vs %v", k, i, got.samples[i], base.samples[i])
			}
		}
		if len(got.annots) != len(base.annots) {
			t.Fatalf("k=%d: %d annotations, time-major %d", k, len(got.annots), len(base.annots))
		}
		for i := range base.annots {
			if got.annots[i] != base.annots[i] {
				t.Fatalf("k=%d annotation %d diverges: %+v vs %+v", k, i, got.annots[i], base.annots[i])
			}
		}
	}

	cfg := shardWorkload(8, delay, nil)
	cfg.Shards = 2
	se, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Observe(deliverySpy{}); err == nil {
		t.Fatal("per-delivery observer accepted")
	} else if !strings.Contains(err.Error(), "per-delivery") {
		t.Fatalf("rejection %q does not explain the per-delivery restriction", err)
	}
	if err := se.Observe(struct{ Observer }{}); err == nil {
		t.Fatal("non-observer accepted")
	}
}

// TestShardedRunSamplesHorizon is the regression test for the horizon
// sample: when the last window ends short of the horizon (here the horizon
// sits in the quiet gap between two rounds), Run must still advance every
// shard's clock to the horizon and sample there once, as Engine.Run does —
// it used to move only its own cut, so recorders missed the final interval
// and callers hand-rolled the sample.
func TestShardedRunSamplesHorizon(t *testing.T) {
	const horizon = clock.Real(0.8e-3) // round 0 lands by ~0.6ms; round 1 fires at 1ms
	cfg := shardWorkload(16, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	cfg.Shards = 4
	se, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var at []clock.Real
	if err := se.Observe(samplerFunc(func(e *Engine) { at = append(at, e.Now()) })); err != nil {
		t.Fatal(err)
	}
	if err := se.Run(horizon); err != nil {
		t.Fatal(err)
	}
	n := len(at)
	if n < 2 || at[n-1] != horizon || at[n-2] >= horizon {
		t.Fatalf("samples end at %v, want the last window cut short of the horizon and then one sample at %v", at[max(0, n-2):], horizon)
	}
	for i := 0; i < se.Shards(); i++ {
		if got := se.Shard(i).Now(); got != horizon {
			t.Fatalf("shard %d clock at %v after Run(%v)", i, got, horizon)
		}
	}
	if err := se.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if len(at) != n {
		t.Fatalf("a second Run to the same horizon sampled %d more times", len(at)-n)
	}
}

// TestLazySlabSizing pins who sizes the header store: a hint that counts
// all-to-all rounds reserves no header per copy — sequential or per shard,
// defaulted or passed in — while a hint below one round's copies describes
// other traffic (the two-tier hierarchy's unicast fan-out, a header each) and
// is taken as it stands.
func TestLazySlabSizing(t *testing.T) {
	const n, k = 64, 4
	hdrs := func(e *Engine) int { return cap(e.queue.hdrs) }
	for _, hint := range []int{0, DefaultEventHint(BroadcastAuto, n)} {
		cfg := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
		cfg.EventHint = hint
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := hdrs(e); got != 4*n+16 {
			t.Errorf("hint %d: sequential header store holds %d, want %d", hint, got, 4*n+16)
		}
		cfg.Shards = k
		se, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if got := hdrs(se.Shard(i)); got != 4*n+16 {
				t.Errorf("hint %d: shard %d header store holds %d, want %d", hint, i, got, 4*n+16)
			}
		}
	}
	cfg := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	cfg.EventHint = n*n/4 + 4*n
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := hdrs(e); got < cfg.EventHint {
		t.Errorf("sparse hint %d: header store holds %d", cfg.EventHint, got)
	}
}

// TestShardedEventHintScaling is the calendar pre-sizing regression test: a
// caller-supplied whole-system EventHint must be scaled down to the shard's
// own share, not passed through — the old behavior oversized every shard's
// queue stores k-fold.
func TestShardedEventHintScaling(t *testing.T) {
	const n, k = 1024, 8
	cfg := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	cfg.EventHint = n*n + 2*n + 8 // the whole-system figure exp.Run would pass
	cfg.Shards = k
	se, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		got := se.Shard(i).queue.eventHint
		if got >= cfg.EventHint/2 {
			t.Fatalf("shard %d hint %d is not scaled down from the whole-system %d", i, got, cfg.EventHint)
		}
		if got < n*n/k {
			t.Fatalf("shard %d hint %d cannot cover its share of a round's copies (n²/k = %d)", i, got, n*n/k)
		}
	}
	// The per-shard defaults (hint unset) must likewise be per-shard sized.
	cfg2 := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	cfg2.Shards = k
	se2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := se2.Shard(0).queue.eventHint; got > 2*n*n/k {
		t.Fatalf("default per-shard hint %d is system-sized (n²/k = %d)", got, n*n/k)
	}
}

// TestShardedTopologyEdges walks the partition edge cases: one process per
// shard (k = n), more shards than processes (rejected), everything on one
// shard (k = 1), a shard whose processes never send, and start times spread
// wider than the lookahead so early windows hold events for only some
// shards (other shards drain empty windows).
func TestShardedTopologyEdges(t *testing.T) {
	delay := UniformDelay{Delta: 4e-4, Eps: 1e-4}
	t.Run("one process per shard", func(t *testing.T) {
		const n = 8
		base := runOnShards(t, shardWorkload(n, delay, nil), 1, 0.01)
		got := runOnShards(t, shardWorkload(n, delay, nil), n, 0.01)
		if what, ok := equalShardRuns(base, got); !ok {
			t.Fatalf("k=n diverges from k=1 in %s", what)
		}
	})
	t.Run("more shards than processes", func(t *testing.T) {
		cfg := shardWorkload(4, delay, nil)
		cfg.Shards = 5
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), "shards") {
			t.Fatalf("k>n not rejected: %v", err)
		}
	})
	t.Run("zero-sender shard", func(t *testing.T) {
		mute := func() Config {
			cfg := shardWorkload(12, delay, nil)
			for i := 9; i < 12; i++ { // the k=4 partition's last block
				cfg.Procs[i].(*shardBeacon).mute = true
			}
			return cfg
		}
		base := runOnShards(t, mute(), 1, 0.01)
		got := runOnShards(t, mute(), 4, 0.01)
		if base.steps == 0 {
			t.Fatal("empty workload")
		}
		if what, ok := equalShardRuns(base, got); !ok {
			t.Fatalf("zero-sender shard diverges in %s", what)
		}
	})
	t.Run("starts wider than lookahead", func(t *testing.T) {
		wide := func() Config {
			cfg := shardWorkload(9, delay, nil)
			for i := range cfg.StartAt {
				// 3 windows' worth of spread between consecutive shards:
				// while shard 0 runs its START windows the others are empty.
				cfg.StartAt[i] = clock.Real(i/3) * 1e-3
			}
			return cfg
		}
		base := runOnShards(t, wide(), 1, 0.01)
		got := runOnShards(t, wide(), 3, 0.01)
		if what, ok := equalShardRuns(base, got); !ok {
			t.Fatalf("wide starts diverge in %s", what)
		}
	})
}

// TestShardedSeqPacking pins the packed-key bit split: it is sized from n
// alone (so it cannot vary with the engine or the shard count), keys order
// by (from, sidx, to), and the send-index field is overflow-guarded. The
// cap it implies is a row of TestNewValidation and TestNewShardedValidation.
func TestShardedSeqPacking(t *testing.T) {
	delay := UniformDelay{Delta: 4e-4, Eps: 1e-4}
	cfg := shardWorkload(10, delay, nil)
	cfg.Shards = 2
	se, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := se.Shard(0)
	seq, err := New(shardWorkload(10, delay, nil))
	if err != nil {
		t.Fatal(err)
	}
	if seq.seqToBits != e.seqToBits || seq.seqFromShift != e.seqFromShift || seq.sidxMax != e.sidxMax {
		t.Fatalf("sequential split %d/%d/%d differs from the shard's %d/%d/%d",
			seq.seqToBits, seq.seqFromShift, seq.sidxMax, e.seqToBits, e.seqFromShift, e.sidxMax)
	}
	if e.seqToBits != 4 || e.seqFromShift != 59 {
		t.Fatalf("n=10 split: toBits=%d fromShift=%d, want 4/59", e.seqToBits, e.seqFromShift)
	}
	if want := uint64(1)<<55 - 1; e.sidxMax != want {
		t.Fatalf("sidxMax = %d, want %d", e.sidxMax, want)
	}
	if got, want := e.packSeq(3, 5, 7), uint64(3)<<59|5<<4|7; got != want {
		t.Fatalf("packSeq(3,5,7) = %x, want %x", got, want)
	}
	// Lexicographic (from, sidx, to) order must map to key order.
	keys := []uint64{
		e.packSeq(0, 0, 0), e.packSeq(0, 0, 9), e.packSeq(0, 1, 0),
		e.packSeq(1, 0, 3), e.packSeq(9, 2, 2),
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("key order broken at %d: %x then %x", i, keys[i-1], keys[i])
		}
	}
	if top := e.packSeq(9, e.sidxMax, 9); top&(1<<63) != 0 {
		t.Fatalf("maximal key %x collides with the calendar TIMER bit", top)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("send-index overflow not caught")
			}
		}()
		e.packSeq(0, e.sidxMax+1, 0)
	}()
}

// TestShardedStress is the -race workout for the parallel window drain: a
// n=192, k=4 mesh long enough that every shard crosses into calendar-queue
// territory and thousands of windows' worth of cross-shard chunks move
// through the pooled exchange. Correctness assertions are minimal — the
// value of this test is running the real concurrent path (a worker set per
// window, link recycling, observer dispatch) under the race detector; the main
// CI workflow invokes it by name as the sharded race smoke.
func TestShardedStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test: skipped under -short")
	}
	const n = 192
	cfg := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	cfg.Shards = 4
	se, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Run(0.02); err != nil {
		t.Fatal(err)
	}
	if se.Steps() < 10*n*n {
		t.Fatalf("only %d steps — stress workload too small", se.Steps())
	}
	for _, p := range cfg.Procs {
		if p.(*shardBeacon).count == 0 {
			t.Fatal("a process never received anything")
		}
	}
}

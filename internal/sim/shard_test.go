package sim

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
)

// shardBeacon is the sharded-mode differential process: a self-sustaining
// broadcaster that folds every delivery, with its queue key — the
// (sender, send index, recipient) numbering itself — into an order-sensitive
// FNV digest. Because the fold is order-sensitive, two executions produce
// the same digest only if every process saw the same deliveries in the same
// order under the same keys — a window-boundary or sequencing bug cannot
// hide behind commutativity.
type shardBeacon struct {
	period  clock.Local
	corr    clock.Local
	digest  uint64
	count   int
	mute    bool // fold deliveries but never send (zero-sender topology)
	unicast bool // fan out as a Send loop over q = 0..n−1
	block   int  // > 0: fan out as Multicasts over blocks of this many ids
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
	mix(ctx.eng.key)
	b.digest = h
	b.count++
	if m.Kind == KindOrdinary || b.mute {
		return
	}
	fanOutAs(ctx, b.unicast, b.block)
	ctx.SetTimer(ctx.PhysNow()+b.period, nil)
}

// fold returns a differential process's order-sensitive digest and its
// delivery count.
func (b *shardBeacon) fold() (uint64, int) { return b.digest, b.count }

// copyBeacon is shardBeacon's CopyReceiver twin. An ordinary copy from q
// sets arr[q] to its local arrival time, in either receive, and commutes
// with the other copies; each START and TIMER folds arr into the digest and
// moves the correction, so the digest pins every arrival's reading and
// which copies preceded each of the process's own steps. It fans out twice
// a step if double — repeating a sender in its recipients' windows — and
// only to the lower half of the ids if half, and sets a blip, a TIMER blip
// after each, which folds only, for inside the window if blip > 0.
type copyBeacon struct {
	shardBeacon
	arr          []clock.Local
	double, half bool
	blip         clock.Local
}

// blipTimer is the payload of a copyBeacon's blip.
type blipTimer struct{}

func (b *copyBeacon) Receive(ctx *Context, m Message) {
	if m.Kind == KindOrdinary {
		b.arr[m.From] = ctx.PhysNow() + b.corr
		b.count++
		return
	}
	b.shardBeacon.Receive(ctx, m) // muted: folds m only
	b.foldArr()
	if m.Payload != nil {
		return
	}
	b.corr += 1e-6
	switch {
	case b.half:
		ctx.Multicast(0, ProcID(ctx.N()/2), nil)
	case b.double:
		fanOutAs(ctx, b.unicast, b.block)
		fallthrough
	default:
		fanOutAs(ctx, b.unicast, b.block)
	}
	ctx.SetTimer(ctx.PhysNow()+b.period, nil)
	if b.blip > 0 {
		ctx.SetTimer(ctx.PhysNow()+b.blip, blipTimer{})
	}
}

func (b *copyBeacon) ReceiveCopies(ctx *Context, from []ProcID, at []clock.Real) {
	for i, q := range from {
		b.arr[q] = ctx.PhysAt(at[i]) + b.corr
	}
	b.count += len(from)
}

// foldArr mixes arr into the digest.
func (b *copyBeacon) foldArr() {
	for _, v := range b.arr {
		b.digest ^= math.Float64bits(float64(v))
		b.digest *= 1099511628211
	}
}

func (b *copyBeacon) fold() (uint64, int) {
	b.foldArr()
	return b.digest, b.count
}

// copyWorkload is shardWorkload over copyBeacons, each behind perCopy
// unless batch, with their shardBeacon muted: a copyBeacon sends itself.
func copyWorkload(n int, delay DelayModel, batch bool, set func(i int, b *copyBeacon)) Config {
	cfg := shardWorkload(n, delay, nil)
	for i, p := range cfg.Procs {
		b := &copyBeacon{shardBeacon: *p.(*shardBeacon), arr: make([]clock.Local, n)}
		b.mute = true
		if set != nil {
			set(i, b)
		}
		cfg.Procs[i] = b
		if !batch {
			cfg.Procs[i] = perCopy{b}
		}
	}
	return cfg
}

// perCopy hides a copyBeacon's ReceiveCopies: a windowed engine delivers
// its copies one Receive at a time.
type perCopy struct{ b *copyBeacon }

func (p perCopy) Receive(ctx *Context, m Message) { p.b.Receive(ctx, m) }
func (p perCopy) Corr() clock.Local               { return p.b.Corr() }
func (p perCopy) fold() (uint64, int)             { return p.b.fold() }

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
	return runOnShardsAs(t, cfg, k, horizon, false)
}

// runOnShardsAs is runOnShards, with every fan-out a stored row if stored.
func runOnShardsAs(t *testing.T, cfg Config, k int, horizon clock.Real, stored bool) *shardRun {
	t.Helper()
	cfg.Shards = k
	se, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stored {
		se.storeRows()
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
		d, c := p.(interface{ fold() (uint64, int) }).fold()
		r.digests = append(r.digests, d)
		r.counts = append(r.counts, c)
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
// joining the rest would come back with a Receive still running. At k = 1 the
// one partition drains on Run's own goroutine, and the error names shard 0.
func TestShardedPanicNamesShard(t *testing.T) {
	const n, victim = 16, 8
	for _, tc := range []struct{ k, shard int }{{4, 2}, {1, 0}} { // shard 2 of 4 owns 8…11
		t.Run(fmt.Sprintf("k=%d", tc.k), func(t *testing.T) {
			cfg := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
			var running atomic.Int32
			for i := range cfg.Procs {
				cfg.Procs[i] = &slowpoke{shardBeacon: shardBeacon{period: 1e-3}, running: &running}
			}
			cfg.Procs[victim] = &bomb{}
			cfg.Shards = tc.k
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
			for _, want := range []string{fmt.Sprintf("sim: shard %d panicked: boom", tc.shard), "(*bomb).Receive"} {
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
		})
	}
}

// TestShardedStepLimit: MaxSteps running out in the middle of a window — the
// second one, where every process receives a round of n copies — ends the run
// with the step-limit error, on one shard and on four. The limit is one
// budget for the run, not one per partition: over a sweep of limits around
// a run's 1,072 deliveries, the time-major engine and k = 1, 2 and 4 give the
// same verdict and the same message up to the time.
func TestShardedStepLimit(t *testing.T) {
	verdict := func(k, limit int) string {
		cfg := shardWorkload(16, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
		cfg.MaxSteps, cfg.Shards = limit, k
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(3.5e-3); err != nil {
			msg, _, _ := strings.Cut(err.Error(), " at t=")
			return msg
		}
		return "ok"
	}
	if got := verdict(0, 1072); got != "ok" {
		t.Fatalf("time-major at the run's 1,072 deliveries: %s", got)
	}
	if got := verdict(0, 1071); got == "ok" {
		t.Fatal("time-major one step short of the run succeeded")
	}
	for limit := 860; limit <= 1080; limit++ {
		want := verdict(0, limit)
		for _, k := range []int{1, 2, 4} {
			if got := verdict(k, limit); got != want {
				t.Fatalf("MaxSteps %d, k=%d: %q; time-major %q", limit, k, got, want)
			}
		}
	}

	// The CopyReceiver twin stops where one Receive a copy stops at every
	// limit up to its run's length, many of them inside a batch: the same
	// error, time included, on the same k, and the time-major verdict.
	copyVerdict := func(k, limit int, batch bool) string {
		cfg := copyWorkload(16, UniformDelay{Delta: 4e-4, Eps: 1e-4}, batch, func(_ int, b *copyBeacon) { b.blip = 1e-4 })
		cfg.MaxSteps, cfg.Shards = limit, k
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(3.5e-3); err != nil {
			return err.Error()
		}
		return fmt.Sprintf("ok after %d steps", e.Steps())
	}
	var total int
	if _, err := fmt.Sscanf(copyVerdict(0, 0, true), "ok after %d steps", &total); err != nil {
		t.Fatal(err)
	}
	for limit := total - 120; limit <= total+1; limit++ {
		want, _, _ := strings.Cut(copyVerdict(0, limit, true), " at t=")
		for _, k := range []int{1, 2, 4} {
			got, one := copyVerdict(k, limit, true), copyVerdict(k, limit, false)
			if got != one {
				t.Fatalf("MaxSteps %d, k=%d: batched %q; one Receive a copy %q", limit, k, got, one)
			}
			if got, _, _ := strings.Cut(got, " at t="); got != want {
				t.Fatalf("MaxSteps %d, k=%d: %q; time-major %q", limit, k, got, want)
			}
		}
	}

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
// model — equal per-process delivery digests, keys included, and equal
// sent/lost/step totals. The lossy unicast rows hold a Send whose one copy
// the channel loses to a send index on both engines, though a partition
// finds the copy lost only at its row's first read. k = 1 holds the
// sequential Run and a one-shard window run — the same drain bounded two
// ways — to one execution; k > 1 adds rows read by
// partitions other than their sender's. Every k runs twice: as the delay
// model has it — drawn rows where it declares its draws per copy, on the
// full mesh and over LossyLinks, stored rows otherwise — and with every row
// stored, so a drawn row is held to the stored row it replaces. The tied row
// starts every process at one instant under a constant delay, so whole
// rounds of copies land together and the packed keys alone order them. The unicast rows fan out as
// n Sends, so every copy is a one-copy row, published and gathered by the
// same path as a broadcast's. The multicast rows fan out as Multicasts over
// blocks of ids.
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
		block   int
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
				row{d.name + "/fullmesh" + suffix, d.delay, nil, false, unicast, 0},
				row{d.name + "/lossy" + suffix, d.delay, cut, false, unicast, 0})
		}
	}
	// Blocks of 7 ids: at k = 2 and 4 blocks straddle the partition cuts at
	// 10, 20 and 30, and at k = 16 (3 ids a partition) every block does, so
	// one multicast's row is read by two or three partitions.
	rows = append(rows,
		row{"tied", ConstantDelay{Delta: 4e-4}, nil, true, false, 0},
		row{"uniform/fullmesh/multicast", UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil, false, false, 7},
		row{"perlink/lossy/multicast", PerLinkDelay{Delta: 4e-4, Eps: 1e-4, Seed: 3}, cut, false, false, 7})
	workload := func(r row) Config {
		cfg := shardWorkload(n, r.delay, r.ch)
		if r.tied {
			cfg.StartAt = starts(n, 0)
		}
		for _, p := range cfg.Procs {
			p.(*shardBeacon).unicast = r.unicast
			p.(*shardBeacon).block = r.block
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
				for _, stored := range []bool{false, true} {
					sh := runOnShardsAs(t, workload(r), k, horizon, stored)
					if seq.sent != sh.sent || seq.lost != sh.lost || seq.steps != sh.steps {
						t.Fatalf("k=%d stored=%v totals diverge: sequential sent=%d lost=%d steps=%d, sharded sent=%d lost=%d steps=%d",
							k, stored, seq.sent, seq.lost, seq.steps, sh.sent, sh.lost, sh.steps)
					}
					for i := range seq.digests {
						if seq.digests[i] != sh.digests[i] || seq.counts[i] != sh.counts[i] {
							t.Fatalf("k=%d stored=%v process %d diverges: sequential (digest=%x count=%d), sharded (digest=%x count=%d)",
								k, stored, i, seq.digests[i], seq.counts[i], sh.digests[i], sh.counts[i])
						}
					}
				}
			}
		})
	}
	// The CopyReceiver twin, delivered in batches, delivered one Receive a
	// copy on the same windows, and time-major: one execution at k = 1, 2
	// and 3. Its blips split batches at in-window timers: on the uniform row,
	// whose starts spread over a period, among the copies. In the double row
	// a third of the processes repeat in each window, which sends it down the
	// sorted path, and the rest reach only the lower half of the ids; the
	// tied row, on perfect clocks under a constant delay, lands copies at the
	// instants of their recipients' own TIMERs (which order after them) and
	// of even ids' STARTs (which order before the copies of higher ids).
	const delta = 4e-4
	for _, c := range []struct {
		name  string
		build func(batch bool) Config
	}{
		{"copies/uniform", func(batch bool) Config {
			cfg := copyWorkload(n, UniformDelay{Delta: delta, Eps: 1e-4}, batch, func(_ int, b *copyBeacon) { b.blip = 1e-4 })
			for i := range cfg.StartAt {
				cfg.StartAt[i] = clock.Real(i) * 2.5e-5 // a period's worth: each TIMER and blip lands among copies
			}
			return cfg
		}},
		{"copies/double", func(batch bool) Config {
			return copyWorkload(n, UniformDelay{Delta: delta, Eps: 1e-4}, batch, func(i int, b *copyBeacon) {
				b.double, b.half, b.blip = i%3 == 0, i%3 != 0, 1e-4
				if i%2 == 0 {
					b.block = 7
				}
			})
		}},
		{"copies/tied", func(batch bool) Config {
			cfg := copyWorkload(n, ConstantDelay{Delta: delta}, batch, func(_ int, b *copyBeacon) { b.period, b.blip = delta, delta/2 })
			cfg.Clocks = perfectClocks(n)
			for i := range cfg.StartAt {
				cfg.StartAt[i] = clock.Real(1-i%2) * delta
			}
			return cfg
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b0, r0, _ := Census()
			tm := runOnShards(t, c.build(true), 0, horizon)
			for _, k := range []int{1, 2, 3} {
				one := runOnShards(t, c.build(false), k, horizon)
				batch := runOnShards(t, c.build(true), k, horizon)
				tm.windows = one.windows // the time-major engine has none
				if what, ok := equalShardRuns(tm, one); !ok {
					t.Fatalf("k=%d, one Receive a copy: %s diverges from the time-major run", k, what)
				}
				if what, ok := equalShardRuns(tm, batch); !ok {
					t.Fatalf("k=%d, batched: %s diverges from the time-major run", k, what)
				}
			}
			b1, r1, _ := Census()
			if b1 == b0 || (r1 == r0) != (c.name != "copies/double") {
				t.Fatalf("%d process-windows batched, %d sent down the sorted path for a repeated sender", b1-b0, r1-r0)
			}
		})
	}
}

// actor is a copyBeacon whose ReceiveCopies takes an action instead.
type actor struct {
	copyBeacon
	act func(*Context)
}

func (a *actor) ReceiveCopies(ctx *Context, _ []ProcID, _ []clock.Real) { a.act(ctx) }

// TestCopyActionRefused: an action inside ReceiveCopies breaks the
// CopyReceiver contract, and Run fails with ErrCopyAction named, at k = 1
// and 2.
func TestCopyActionRefused(t *testing.T) {
	for name, act := range map[string]func(*Context){
		"SetTimer":  func(c *Context) { c.SetTimer(c.PhysNow()+1, nil) },
		"Annotate":  func(c *Context) { c.Annotate("x", 1) },
		"Send":      func(c *Context) { c.Send(0, nil) },
		"Multicast": func(c *Context) { c.Multicast(0, 2, nil) },
		"Broadcast": func(c *Context) { c.Broadcast(nil) },
	} {
		for _, k := range []int{1, 2} {
			cfg := copyWorkload(8, UniformDelay{Delta: 4e-4, Eps: 1e-4}, true, nil)
			cfg.Procs[5] = &actor{copyBeacon: *cfg.Procs[5].(*copyBeacon), act: act}
			cfg.Shards = k
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(3e-3); err == nil || !strings.Contains(err.Error(), ErrCopyAction.Error()) {
				t.Fatalf("%s inside ReceiveCopies, k=%d: Run = %v; want %v", name, k, err, ErrCopyAction)
			}
		}
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

// TestShardedAdoptionBeforeWindow is the regression test for a partition
// that takes up copies landing before everything it already holds: a shard
// whose only pending events are far timers is sent copies that land long
// before those timers. They must be delivered in the next window, ahead of
// the timers, so every process sees exactly the sequential engine's
// deliveries, in its order. The broadcast row sends them as one row per
// broadcast, the unicast row, in which every beacon fans out as n Sends, as
// one row per Send; the cut publishes both.
func TestShardedAdoptionBeforeWindow(t *testing.T) {
	const n = 8
	horizon := clock.Real(0.12)
	delay := PerLinkDelay{Delta: 4e-4, Eps: 1e-4, Seed: 5}
	for _, unicast := range []bool{false, true} {
		workload := func() Config {
			cfg := shardWorkload(n, delay, nil)
			for i := range n / 2 {
				cfg.Procs[i].(*shardBeacon).unicast = unicast
			}
			for i := n / 2; i < n; i++ { // shard 1 of 2: idlers
				cfg.Procs[i] = &idler{far: 50e-3}
			}
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
		// At every cut: count the cuts where shard 1 is to take up copies —
		// copies to its processes on the board's rows, not yet delivered —
		// that land well before the earliest event on its timer heap. The
		// run is Run's window loop, stepped here to look between the windows.
		adoptedEarlier := 0
		atCut := func() {
			sh := se.Shard(1)
			held := math.Inf(1)
			if top := sh.part.timers.peek(); top != nil {
				held = top.at
			}
			early, b := math.Inf(1), sh.part.board
			for _, h := range b.live {
				for a := int(h.lo); a < int(h.lo+h.m); a++ {
					at := sh.times(&h, a, a+1)[0]
					if a >= n/2 && at == at && !(at < b.H && at <= b.U) {
						early = min(early, at)
					}
				}
			}
			if held-early > 5e-3 {
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
		if adoptedEarlier < 10 {
			t.Fatalf("unicast=%v: only %d cuts left shard 1 taking up copies ahead of its own far timers — the scenario did not occur", unicast, adoptedEarlier)
		}
		gotD, gotC := digests(cfg)
		for i := range wantD {
			if gotD[i] != wantD[i] || gotC[i] != wantC[i] {
				t.Fatalf("unicast=%v: process %d diverges: sequential (digest=%x count=%d), sharded (digest=%x count=%d)",
					unicast, i, wantD[i], wantC[i], gotD[i], gotC[i])
			}
		}
		if wantC[n-1] < 100 {
			t.Fatalf("unicast=%v: idler %d saw only %d deliveries", unicast, n-1, wantC[n-1])
		}
	}
}

// alarm exercises a partition's in-window timers on perfect clocks under a
// constant delay, where delivery times are exact sums. At its START it
// broadcasts and sets a timer for inside the window, which re-arms once; on
// the copy from q it sets a timer for the instant q+1's copy reaches it,
// which ties with that ordinary delivery. It folds every delivery's (at,
// kind, from) into an order-sensitive digest and counts, on a partition,
// the timers filed to the in-window heap and those delivered while due
// copies were still waiting (the merge).
type alarm struct {
	starts          []clock.Real
	delta           clock.Real
	digest          uint64
	rearmed         bool
	merged, between int
}

func (a *alarm) Receive(ctx *Context, m Message) {
	h := a.digest
	if h == 0 {
		h = 1469598103934665603
	}
	for _, x := range []uint64{math.Float64bits(float64(m.DeliverAt)), uint64(m.Kind), uint64(m.From)} {
		h ^= x
		h *= 1099511628211
	}
	a.digest = h
	e := ctx.eng
	set := func(T clock.Local) {
		ctx.SetTimer(T, nil)
		if e.part != nil && e.queue.heap.len() > 0 {
			a.merged++
		}
	}
	switch m.Kind {
	case KindStart:
		ctx.Broadcast(nil)
		set(ctx.PhysNow() + 5e-5)
	case KindTimer:
		if e.part != nil && e.part.wpos < len(e.part.win) {
			a.between++
		}
		if !a.rearmed {
			a.rearmed = true
			set(ctx.PhysNow() + 5e-5)
		}
	case KindOrdinary:
		if next := int(m.From) + 1; next < len(a.starts) {
			set(clock.Local(a.starts[next] + a.delta))
		}
	}
}

// TestShardedInWindowTimers is the differential test of the in-window timer
// merge: timers set for inside the current window, and timers landing at
// exactly the delivery time of an ordinary copy to the same process (which
// §2.3(4) orders first), give every process the time-major engine's
// (at, kind, from) sequence for k = 1, 2 and 3, and the merge path runs.
func TestShardedInWindowTimers(t *testing.T) {
	const n = 12
	const delta = 4e-4
	run := func(k int) (digests []uint64, merged, between int) {
		procs := make([]Process, n)
		clocks := make([]clock.Clock, n)
		st := make([]clock.Real, n)
		for i := range procs {
			st[i] = clock.Real(i) * 1e-5
			clocks[i] = clock.Linear(0, 1)
		}
		for i := range procs {
			procs[i] = &alarm{starts: st, delta: delta}
		}
		e, err := New(Config{Procs: procs, Clocks: clocks, StartAt: st, Delay: ConstantDelay{Delta: delta}, Seed: 3, Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(2e-3); err != nil {
			t.Fatal(err)
		}
		for _, p := range procs {
			a := p.(*alarm)
			digests = append(digests, a.digest)
			merged, between = merged+a.merged, between+a.between
		}
		return digests, merged, between
	}
	want, _, _ := run(0)
	for _, k := range []int{1, 2, 3} {
		got, merged, between := run(k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: process %d's (at, kind, from) sequence diverges from the time-major run's", k, i)
			}
		}
		if merged == 0 || between == 0 {
			t.Fatalf("k=%d: %d timers filed in-window, %d delivered between due copies — the merge path did not run", k, merged, between)
		}
	}
}

// undershoot is a delay model that breaks its own declared lower bound for
// one recipient, and declares so in its span. Its delay depends on the
// recipient, so it has no SampleAll.
type undershoot struct {
	u  UniformDelay
	to ProcID
}

func (d undershoot) Bounds() (float64, float64) { return d.u.Bounds() }
func (d undershoot) DrawsPerCopy() int          { return d.u.DrawsPerCopy() }

// Span declares what Sample does: the victim's copy at a tenth of δ−ε.
func (d undershoot) Span(from, lo, hi ProcID, at clock.Real) (float64, float64) {
	mn, mx := d.u.Span(from, lo, hi, at)
	if lo <= d.to && d.to < hi {
		mn = 0.1 * (d.u.Delta - d.u.Eps)
	}
	return mn, mx
}

func (d undershoot) Sample(from, to ProcID, at clock.Real, rng *RNG) float64 {
	if u := d.u.Sample(from, to, at, rng); to != d.to {
		return u
	}
	return 0.1 * (d.u.Delta - d.u.Eps)
}

// TestShardedLowerBoundEveryCopy: the lookahead is only as good as the delay
// model's declared lower bound, so a copy filed inside the window it was sent
// in ends the run — every copy, not just the first of each fan-out's share,
// local or remote, unicast or broadcast. A model that undershoots δ−ε for one
// recipient in the middle of a block must end the run with the named error,
// never a reordered execution, and the error must name the same copy — the
// least (at, key) one — whatever the partition count, k = 1 included.
func TestShardedLowerBoundEveryCopy(t *testing.T) {
	const n, victim = 8, 6 // shard 1 of 2 owns 4…7
	for _, unicast := range []bool{false, true} {
		var first string
		for _, k := range []int{1, 2, 4} {
			cfg := shardWorkload(n, undershoot{UniformDelay{Delta: 4e-4, Eps: 1e-4}, victim}, nil)
			if unicast {
				for i := range cfg.Procs {
					cfg.Procs[i] = &testBeacon{period: 1e-3, unicast: true}
				}
			}
			cfg.Shards = k
			se, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = se.Run(0.01)
			if err == nil || !strings.Contains(err.Error(), "violated its declared lower bound") || !strings.Contains(err.Error(), "→6 ") {
				t.Fatalf("unicast=%v k=%d: Run = %v; want the lower-bound error naming a copy to process %d", unicast, k, err, victim)
			}
			if k == 1 {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("unicast=%v: k=%d reports %q, k=1 %q", unicast, k, err, first)
			}
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

// TestLazySlabSizing pins how the stores are sized. On the time-major
// engine every fan-out — a broadcast, a multicast, a Send — is one header,
// so the header store starts at 4n+16, and the heap at DefaultEventHint; a
// partition keeps its fan-outs as rows and heads only its processes' STARTs
// and TIMERs, so its header store starts at 2·own+4. Config.EventHint, set
// here below a round's copies, moves none of them.
func TestLazySlabSizing(t *testing.T) {
	const n, k = 64, 4
	hdrs := func(e *Engine) int { return cap(e.queue.hdrs) }
	cfg := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	cfg.EventHint = n*n/4 + 4*n
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := hdrs(e); got != 4*n+16 {
		t.Errorf("sequential header store holds %d, want %d", got, 4*n+16)
	}
	if got, want := cap(e.queue.heap.items), DefaultEventHint(BroadcastAuto, n); got != want {
		t.Errorf("sequential heap holds %d, want %d", got, want)
	}
	cfg.Shards = k
	se, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if got := hdrs(se.Shard(i)); got != 2*n/k+4 {
			t.Errorf("shard %d header store holds %d, want %d", i, got, 2*n/k+4)
		}
	}
}

// TestShardedEventHintScaling: a partition holds its own share of the
// pending events, not the whole system's. With every process starting at one
// instant, a round's n² copies are all in flight together; each of k
// partitions must then have held its n²/k — every copy to its processes, on
// its own rows and on other partitions' — and well under the whole system's,
// whatever whole-system EventHint the caller passed (engines ignore it).
func TestShardedEventHintScaling(t *testing.T) {
	const n, k = 512, 8
	cfg := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	cfg.StartAt = starts(n, 0)
	cfg.EventHint = n*n + 2*n + 8 // the whole-system figure exp.Run would pass
	cfg.Shards = k
	se, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Run(0.8e-3); err != nil { // round 0 lands by 0.5 ms, round 1 fires at 1 ms
		t.Fatal(err)
	}
	top := 0
	for i := 0; i < k; i++ {
		got := se.Shard(i).queue.peak
		if got < n*n/k || got >= 2*n*n/k {
			t.Fatalf("shard %d peaked at %d pending events; want its share of a round's copies, n²/k = %d, and not the whole system's %d", i, got, n*n/k, n*n)
		}
		top = max(top, got)
	}
	if se.QueuePeak() != top {
		t.Fatalf("QueuePeak %d, want the largest partition's %d", se.QueuePeak(), top)
	}
}

// TestShardedSplitHorizons runs a windowed engine to its horizon in 37 µs
// Run calls, many of them ending inside a round's copy spread, so a
// broadcast has copies delivered by one Run and pending for the next: the
// watermark a window leaves and the NaN marking of the copies a lossy
// channel drops must give every process the time-major engine's deliveries,
// and the same step, sent and lost totals, at k = 1, 2 and 4. The sent and
// lost counts equal the time-major engine's at every horizon, though a
// partition counts a lost copy only at its row's first read: Run's horizon
// reads the rows no window read.
func TestShardedSplitHorizons(t *testing.T) {
	const n, step = 24, 37e-6
	horizon := clock.Real(0.012)
	delay := UniformDelay{Delta: 4e-4, Eps: 1e-4}
	for _, ch := range []Channel{nil, LossyLinks{}.BreakBothWays(0, 23).BreakBothWays(3, 17)} {
		want := runOnShards(t, shardWorkload(n, delay, ch), 0, horizon)
		if (ch != nil) != (want.lost > 0) {
			t.Fatalf("%d copies lost on channel %v", want.lost, ch)
		}
		tm, err := New(shardWorkload(n, delay, ch))
		if err != nil {
			t.Fatal(err)
		}
		var counts [][2]int64 // the time-major sent and lost counts at each horizon
		for i := 1; ; i++ {
			h := min(clock.Real(i)*step, horizon)
			if err := tm.Run(h); err != nil {
				t.Fatal(err)
			}
			counts = append(counts, [2]int64{tm.MessagesSent(), tm.MessagesLost()})
			if h == horizon {
				break
			}
		}
		for _, k := range []int{1, 2, 4} {
			cfg := shardWorkload(n, delay, ch)
			cfg.Shards = k
			se, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inside := 0
			for i := 1; ; i++ {
				h := min(clock.Real(i)*step, horizon)
				if err := se.Run(h); err != nil {
					t.Fatal(err)
				}
				if c := counts[i-1]; se.MessagesSent() != c[0] || se.MessagesLost() != c[1] {
					t.Fatalf("k=%d ch=%v: sent/lost %d/%d at t=%v, time-major %d/%d", k, ch, se.MessagesSent(), se.MessagesLost(), h, c[0], c[1])
				}
				for _, b := range se.part.board.live {
					// A row's extremes narrow to its pending copies once read:
					// the spread is its band from the send.
					if lo, hi := b.sentAt+clock.Real(delay.Delta-delay.Eps), b.sentAt+clock.Real(delay.Delta+delay.Eps); lo <= h && h < hi {
						inside++
						break
					}
				}
				if h == horizon {
					break
				}
			}
			if inside < 50 {
				t.Fatalf("k=%d: only %d horizons fell inside a broadcast's copy spread", k, inside)
			}
			if se.Steps() != want.steps || se.MessagesSent() != want.sent || se.MessagesLost() != want.lost {
				t.Fatalf("k=%d ch=%v: steps/sent/lost %d/%d/%d, time-major %d/%d/%d", k, ch,
					se.Steps(), se.MessagesSent(), se.MessagesLost(), want.steps, want.sent, want.lost)
			}
			for i, p := range cfg.Procs {
				if b := p.(*shardBeacon); b.digest != want.digests[i] || b.count != want.counts[i] {
					t.Fatalf("k=%d ch=%v: process %d diverges: time-major (digest=%x count=%d), split (digest=%x count=%d)",
						k, ch, i, want.digests[i], want.counts[i], b.digest, b.count)
				}
			}
		}
	}
}

// TestShardedBroadcastMemory is the memory gate of the windowed engine's
// fan-outs (ROADMAP item 3): the bytes held per fan-out in flight stay O(1)
// in n. Beacons on two partitions all broadcast at once, so round 0 puts n
// fan-outs in flight together, and what the engine holds for them — their
// headers (the board's and the partitions' sent lists, 80 bytes each) — is
// kept once made. Under UniformDelay, which declares one draw per copy,
// every broadcast is a drawn row, which holds no times, on the full mesh and
// over LossyLinks, whose lost copies its readers route again: no cut of
// round 0 holds a stored row, n = 2048 holds no more bytes per fan-out than
// n = 512, and New plus round 0 allocate no more per process at 2048 than at
// 512 (stored rows would allocate four times as much).
func TestShardedBroadcastMemory(t *testing.T) {
	const k = 2
	if size := unsafe.Sizeof(bcast{}); size != 80 {
		t.Fatalf("a fan-out's header is %d bytes, want 80", size)
	}
	held := func(e *Engine) int {
		hdrs := cap(e.part.board.live)
		for _, p := range e.parts {
			hdrs += cap(p.part.sent)
		}
		return 80 * hdrs
	}
	// round0 runs cfg window by window to 0.9 ms — round 0 is sent at 0 and
	// delivered by 0.5 ms — and fails on a stored row at any cut.
	round0 := func(name string, cfg Config) *Engine {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.enter()
		for more := true; more; {
			if more, err = e.window(0.9e-3); err != nil {
				t.Fatal(err)
			}
			for _, h := range e.part.board.live {
				if h.at != nil {
					t.Fatalf("%s: a broadcast of %d is a stored row; under UniformDelay it is drawn", name, h.from)
				}
			}
		}
		if got := e.Process(ProcID(len(cfg.Procs) - 1)).(*shardBeacon).count; got < len(cfg.Procs) {
			t.Fatalf("%s: process %d received %d messages in round 0, want at least %d", name, len(cfg.Procs)-1, got, len(cfg.Procs))
		}
		return e
	}
	beacons := func(n int, ch Channel) Config {
		cfg := shardWorkload(n, UniformDelay{Delta: 4e-4, Eps: 1e-4}, ch)
		cfg.StartAt = starts(n, 0)
		cfg.Shards = k
		return cfg
	}
	perFanOut, perProc := map[int]float64{}, map[int]float64{}
	for _, n := range []int{512, 2048} {
		cfg := beacons(n, nil)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		se := round0(fmt.Sprintf("n=%d", n), cfg)
		runtime.ReadMemStats(&after)
		perFanOut[n] = float64(held(se)) / float64(n)
		perProc[n] = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	t.Logf("bytes held per fan-out in flight: %.0f at n=512, %.0f at n=2048; allocated per process: %.0f, %.0f",
		perFanOut[512], perFanOut[2048], perProc[512], perProc[2048])
	if perFanOut[2048] > 1.25*perFanOut[512] {
		t.Fatalf("bytes held per fan-out in flight grow with n: %.0f at n=512, %.0f at n=2048", perFanOut[512], perFanOut[2048])
	}
	if perProc[2048] > 1.5*perProc[512] {
		t.Fatalf("New and round 0 allocate %.0f B per process at n=2048, %.0f at n=512: the fan-outs cost O(n) each", perProc[2048], perProc[512])
	}
	if se := round0("lossy", beacons(512, LossyLinks{}.BreakBothWays(3, 30))); se.MessagesLost() == 0 {
		t.Fatal("lossy: no copy lost")
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
		t.Fatalf("maximal key %x collides with the TIMER bit of an entry key", top)
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
// n=192, k=4 mesh long enough that thousands of windows' worth of rows are
// published, gathered by every partition and dropped. Correctness
// assertions are minimal — the value of this test is running the real
// concurrent path (the Run crew claiming partitions, rows redrawn on every
// partition at once, observer dispatch) under the race detector; the main
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

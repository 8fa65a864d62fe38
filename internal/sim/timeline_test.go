package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/clock"
)

// pinger broadcasts on START and then once per second of physical time.
type pinger struct{}

func (pinger) Receive(ctx *Context, m Message) {
	switch m.Kind {
	case KindStart, KindTimer:
		ctx.Broadcast("ping")
		ctx.SetTimer(ctx.PhysNow()+1, nil)
	}
}

// logObserver appends one line per delivered ordinary message to a shared log.
type logObserver struct{ log *[]string }

func (o logObserver) OnDeliver(e *Engine, m Message) {
	if m.Kind == KindOrdinary {
		*o.log = append(*o.log, fmt.Sprintf("deliver t=%.3f p%d←p%d", float64(m.DeliverAt), m.To, m.From))
	}
}

func pingConfig(n int, extra func(*Config)) Config {
	procs := make([]Process, n)
	clocks := make([]clock.Clock, n)
	starts := make([]clock.Real, n)
	for i := range procs {
		procs[i] = pinger{}
		clocks[i] = clock.Linear(0, 1)
	}
	cfg := Config{
		Procs:   procs,
		Clocks:  clocks,
		StartAt: starts,
		Delay:   ConstantDelay{Delta: 0.01},
	}
	if extra != nil {
		extra(&cfg)
	}
	return cfg
}

// TestTimelineOrdering checks the interleaving contract: an action at time t
// runs after every delivery strictly before t and before any delivery at or
// after t — including exact ties — and actions due by the horizon fire even
// after the queue drains past them.
func TestTimelineOrdering(t *testing.T) {
	var log []string
	cfg := pingConfig(2, func(c *Config) {
		c.Timeline = []TimedAction{
			// Exactly ties the first broadcast's delivery time (0.01): the
			// action must be logged first.
			{At: 0.01, Name: "tie", Do: func(e *Engine) {
				log = append(log, fmt.Sprintf("action tie t=%.3f", float64(e.Now())))
			}},
			{At: 1.5, Name: "mid", Do: func(e *Engine) {
				log = append(log, fmt.Sprintf("action mid t=%.3f", float64(e.Now())))
			}},
		}
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(logObserver{&log})
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 {
		t.Fatal("empty log")
	}
	tieAt, midAt := -1, -1
	for i, line := range log {
		if strings.HasPrefix(line, "action tie") {
			tieAt = i
		}
		if strings.HasPrefix(line, "action mid") {
			midAt = i
		}
	}
	if tieAt == -1 || midAt == -1 {
		t.Fatalf("actions missing from log:\n%s", strings.Join(log, "\n"))
	}
	if tieAt != 0 {
		t.Errorf("tie action at index %d, want 0 (before the t=0.010 deliveries it ties):\n%s",
			tieAt, strings.Join(log, "\n"))
	}
	for i, line := range log {
		var at float64
		if _, err := fmt.Sscanf(line, "deliver t=%f", &at); err != nil {
			continue
		}
		if at < 1.5 && i > midAt {
			t.Errorf("delivery %q after the t=1.5 action", line)
		}
		if at >= 1.5 && i < midAt {
			t.Errorf("delivery %q before the t=1.5 action", line)
		}
	}
	if e.TimelineRemaining() != 0 {
		t.Errorf("%d actions unfired", e.TimelineRemaining())
	}
}

// TestTimelineFiresAfterQueueDrains: a silent system (no traffic at all)
// still fires actions due by the horizon, and actions past the horizon wait
// for a later Run call.
func TestTimelineFiresAfterQueueDrains(t *testing.T) {
	fired := []float64{}
	cfg := Config{
		Procs:   []Process{silentSink{}},
		Clocks:  []clock.Clock{clock.Linear(0, 1)},
		StartAt: []clock.Real{0},
		Delay:   ConstantDelay{Delta: 0.01},
		Timeline: []TimedAction{
			{At: 4, Name: "a", Do: func(e *Engine) { fired = append(fired, float64(e.Now())) }},
			{At: 10, Name: "b", Do: func(e *Engine) { fired = append(fired, float64(e.Now())) }},
		},
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 4 {
		t.Fatalf("after Run(5): fired=%v, want [4]", fired)
	}
	if e.TimelineRemaining() != 1 {
		t.Fatalf("remaining=%d, want 1", e.TimelineRemaining())
	}
	if e.Now() != 5 {
		t.Errorf("Now=%v, want horizon 5", e.Now())
	}
	if err := e.Run(12); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[1] != 10 {
		t.Fatalf("after Run(12): fired=%v, want [4 10]", fired)
	}
}

type silentSink struct{}

func (silentSink) Receive(*Context, Message) {}

// TestTimelineSetChannel partitions the 2-process system mid-run and heals
// it: copies sent while the cut is in force are lost, traffic before and
// after flows.
func TestTimelineSetChannel(t *testing.T) {
	cut := NewLossyLinks().BreakBothWays(0, 1)
	cfg := pingConfig(2, func(c *Config) {
		c.Timeline = []TimedAction{
			{At: 1.5, Name: "cut", Do: func(e *Engine) { e.SetChannel(cut) }},
			{At: 3.5, Name: "heal", Do: func(e *Engine) { e.SetChannel(nil) }},
		}
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	// Broadcast instants: 0, 1, 2, 3, 4, 5 (+10ms delivery offsets). The
	// cut covers the sends at t=2 and t=3: each loses the two cross copies.
	if e.MessagesLost() != 4 {
		t.Errorf("lost %d copies, want 4 (2 broadcasts × 2 cross links)", e.MessagesLost())
	}
	if e.MessagesSent() != 2*6*2-4 {
		t.Errorf("sent %d copies, want %d", e.MessagesSent(), 2*6*2-4)
	}
}

// TestTimelineSetDelayModel shifts the delay band mid-run; traffic sent after
// the shift arrives with the new latency. Copies already in flight keep
// their old delivery times.
func TestTimelineSetDelayModel(t *testing.T) {
	var log []string
	cfg := pingConfig(1, func(c *Config) {
		c.Timeline = []TimedAction{
			{At: 1.5, Name: "shift", Do: func(e *Engine) {
				if err := e.SetDelayModel(ConstantDelay{Delta: 0.2}); err != nil {
					t.Errorf("SetDelayModel: %v", err)
				}
			}},
		}
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(logObserver{&log})
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	// Self-broadcasts at t=0, 1 arrive +10ms; at t=2 (after the shift) +200ms.
	want := []string{
		"deliver t=0.010 p0←p0",
		"deliver t=1.010 p0←p0",
		"deliver t=2.200 p0←p0",
	}
	if got := strings.Join(log, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("deliveries:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// TestTimelineSetDelayModelRejectsA3 verifies the swap hook enforces the
// same A3 validation as New.
func TestTimelineSetDelayModelRejectsA3(t *testing.T) {
	e, err := New(pingConfig(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetDelayModel(UniformDelay{Delta: 0.01, Eps: 0.05}); err == nil {
		t.Error("ε > δ accepted")
	}
	if err := e.SetDelayModel(nil); err == nil {
		t.Error("nil model accepted")
	}
}

// TestTimelineSetAdversary installs and removes an adversary mid-run and
// checks the send path's classification follows.
func TestTimelineSetAdversary(t *testing.T) {
	e, err := New(pingConfig(2, func(c *Config) {
		c.Delay = UniformDelay{Delta: 0.01, Eps: 0.002}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if e.Adversary() != nil {
		t.Fatal("adversary installed at New without configuration")
	}
	e.SetAdversary(maxDelayAdversary{})
	if e.Adversary() == nil {
		t.Fatal("SetAdversary did not install a controller")
	}
	if lo, hi := e.Adversary().lo, e.Adversary().hi; lo != 0.008 || hi != 0.012 {
		t.Errorf("clamp envelope [%v, %v], want [0.008, 0.012]", lo, hi)
	}
	// The envelope must follow a subsequent delay-band shift.
	if err := e.SetDelayModel(UniformDelay{Delta: 0.02, Eps: 0.001}); err != nil {
		t.Fatal(err)
	}
	if lo, hi := e.Adversary().lo, e.Adversary().hi; lo != 0.019 || hi != 0.021 {
		t.Errorf("clamp envelope [%v, %v] after shift, want [0.019, 0.021]", lo, hi)
	}
	e.SetAdversary(nil)
	if e.Adversary() != nil {
		t.Error("SetAdversary(nil) left a controller installed")
	}
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
}

// maxDelayAdversary pins every copy to the top of the clamp envelope.
type maxDelayAdversary struct{}

func (maxDelayAdversary) Retime(*AdversaryView, ProcID, ProcID, clock.Real, float64) float64 {
	return 1e9
}

// TestTimelineNilDo: a timeline entry without a Do function is a
// configuration error, not a run-time panic.
func TestTimelineNilDo(t *testing.T) {
	_, err := New(pingConfig(1, func(c *Config) {
		c.Timeline = []TimedAction{{At: 1, Name: "broken"}}
	}))
	if err == nil {
		t.Error("nil Do accepted")
	}
}

// TestShardedRejectsTimeline: the sharded engine cannot honor mid-window
// mutations of global state.
func TestShardedRejectsTimeline(t *testing.T) {
	cfg := pingConfig(4, func(c *Config) {
		c.Timeline = []TimedAction{{At: 1, Name: "x", Do: func(*Engine) {}}}
		c.Shards = 2
	})
	if _, err := New(cfg); err == nil {
		t.Error("sharded engine accepted a timeline")
	}
}

// TestTimelineNoopPreservesExecution: a timeline whose actions mutate
// nothing leaves the execution byte-identical to a run with no timeline.
func TestTimelineNoopPreservesExecution(t *testing.T) {
	run := func(withTimeline bool) string {
		tr := NewTracer(0)
		cfg := pingConfig(3, func(c *Config) {
			c.Delay = UniformDelay{Delta: 0.01, Eps: 0.002}
			c.Seed = 42
			if withTimeline {
				c.Timeline = []TimedAction{
					{At: 0.5, Name: "noop", Do: func(*Engine) {}},
					{At: 2.5, Name: "noop", Do: func(*Engine) {}},
				}
			}
		})
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Observe(tr)
		if err := e.Run(4); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if _, err := tr.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if plain, noop := run(false), run(true); plain != noop {
		t.Error("no-op timeline perturbed the execution")
	}
}

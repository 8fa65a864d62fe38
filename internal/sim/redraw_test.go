package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/clock"
)

// checkRedraw holds the drawn rows of delay's fan-outs over channel ch (nil:
// the full mesh) to the stored rows they replace, bit for bit. For each kind
// of fan-out — a Broadcast, Multicasts over blocks of 7 ids (the block
// [14, 21) straddles the gather tile boundary at 16 and the partition cut at
// 20) and n Sends — it runs n = 40 shardBeacons on two partitions window by
// window beside a twin whose rows are all stored, and keeps every row either
// board published. Then it redraws every copy of every drawn row, tile by
// tile as the gather of the copy's partition does, and compares the times
// with the twin's row (math.Float64bits, so a lost copy is NaN in both) and
// the headers field by field: a drawn row's extremes are its declared span,
// around the twin's exact ones. A Send the channel loses whole is a drawn
// row, whose copy its first read counts lost, and no stored row: it is held
// to a twin of NaNs. Both runs must deliver alike. It returns how many drawn
// rows it compared per kind of fan-out, under "lost" how many of their
// copies were lost, and under "wholly lost" how many rows had no twin.
func checkRedraw(t *testing.T, delay CounterDelayModel, ch Channel) (drawn map[string]int) {
	t.Helper()
	const n, k = 40, 2
	horizon := clock.Real(4e-3)
	drawn = map[string]int{}
	for _, fan := range []struct {
		name    string
		unicast bool
		block   int
	}{{"broadcast", false, 0}, {"multicast", false, 7}, {"send", true, 0}} {
		var cfgs [2]Config
		var engs [2]*Engine
		var rows [2]map[uint64]bcast // by key: every row the board published
		for i := range engs {
			cfgs[i] = shardWorkload(n, delay, ch)
			cfgs[i].Shards = k
			for _, p := range cfgs[i].Procs {
				p.(*shardBeacon).unicast, p.(*shardBeacon).block = fan.unicast, fan.block
			}
			e, err := New(cfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			if engs[i], rows[i] = e, map[uint64]bcast{}; i == 1 {
				e.storeRows()
			}
			e.enter()
			for more := true; more; {
				if more, err = e.window(horizon); err != nil {
					t.Fatal(err)
				}
				for _, h := range e.part.board.live {
					if _, ok := rows[i][h.seq]; !ok { // as published, before a cut settles it
						rows[i][h.seq] = h
					}
				}
			}
		}
		d, whole := engs[0], 0
		for seq, hd := range rows[0] {
			hs, ok := rows[1][seq]
			if !ok {
				lost := make([]float64, hd.m)
				for i := range lost {
					lost[i] = math.NaN()
				}
				hs = bcast{from: hd.from, lo: hd.lo, m: hd.m, sentAt: hd.sentAt, min: math.Inf(1), max: math.Inf(-1), at: &lost}
				whole++
			}
			if hs.at == nil {
				t.Fatalf("%s: the fan-out of %d keyed %#x has no stored twin", fan.name, hd.from, seq)
			}
			if hd.from != hs.from || hd.lo != hs.lo || hd.m != hs.m || hd.sentAt != hs.sentAt {
				t.Fatalf("%s: header %+v, stored %+v", fan.name, hd, hs)
			}
			if hd.at != nil {
				continue
			}
			a, z := delay.Span(ProcID(hd.from), ProcID(hd.lo), ProcID(hd.lo+hd.m), hd.sentAt)
			mn, mx := float64(hd.sentAt+clock.Real(a)), float64(hd.sentAt+clock.Real(z))
			if math.Float64bits(hd.min) != math.Float64bits(mn) || math.Float64bits(hd.max) != math.Float64bits(mx) || !(hd.min <= hs.min && hs.max <= hd.max) {
				t.Fatalf("%s: the extremes of %d's fan-out are [%v, %v], want [%v, %v] around the stored row's [%v, %v]",
					fan.name, hd.from, hd.min, hd.max, mn, mx, hs.min, hs.max)
			}
			drawn[fan.name]++
			lo, hi := int(hd.lo), int(hd.lo+hd.m)
			for _, p := range d.parts {
				end := p.part.base + p.part.own
				for first := p.part.base; first < end; first += gatherTile {
					a, z := max(first, lo), min(first+gatherTile, end, hi)
					if a >= z {
						continue
					}
					got, want := p.times(&hd, a, z), (*hs.at)[a-lo:z-lo]
					for j := range got {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s: copy %d→%d sent at %v redraws to %v on partition %d, stored %v",
								fan.name, hd.from, a+j, hd.sentAt, got[j], p.part.id, want[j])
						}
						if got[j] != got[j] {
							drawn["lost"]++
						}
					}
				}
			}
		}
		if len(rows[0]) != len(rows[1])+whole {
			t.Fatalf("%s: %d rows published, %d with stored rows and %d wholly lost", fan.name, len(rows[0]), len(rows[1]), whole)
		}
		drawn["wholly lost"] += whole
		for q := range n {
			bd, bs := cfgs[0].Procs[q].(*shardBeacon), cfgs[1].Procs[q].(*shardBeacon)
			if bd.digest != bs.digest || bd.count != bs.count {
				t.Fatalf("%s: process %d diverges: drawn rows (digest=%x count=%d), stored rows (digest=%x count=%d)",
					fan.name, q, bd.digest, bd.count, bs.digest, bs.count)
			}
		}
	}
	return drawn
}

// miscounted is UniformDelay declaring no draws per copy when it takes one.
type miscounted struct{ UniformDelay }

func (miscounted) DrawsPerCopy() int { return 0 }

// narrowed is a model whose declared span is one ulp too narrow at both
// ends.
type narrowed struct{ CounterDelayModel }

func (d narrowed) Span(from, lo, hi ProcID, at clock.Real) (float64, float64) {
	mn, mx := d.CounterDelayModel.Span(from, lo, hi, at)
	return math.Nextafter(mn, math.Inf(1)), math.Nextafter(mx, math.Inf(-1))
}

// misspan is UniformDelay declaring the span [lo, hi] for every fan-out.
type misspan struct {
	UniformDelay
	lo, hi float64
}

func (d misspan) Span(_, _, _ ProcID, _ clock.Real) (float64, float64) { return d.lo, d.hi }

// recipientBatch is UniformDelay whose copies to odd ids take δ, with a
// SampleAll that sets the odd positions of its batch, not the odd ids.
type recipientBatch struct{ UniformDelay }

func (d recipientBatch) Sample(from, to ProcID, at clock.Real, rng *RNG) float64 {
	if u := d.UniformDelay.Sample(from, to, at, rng); to%2 == 0 {
		return u
	}
	return d.Delta
}

func (d recipientBatch) SampleAll(from ProcID, n int, at clock.Real, rng *RNG, out []float64) {
	d.UniformDelay.SampleAll(from, n, at, rng, out)
	for q := 1; q < n; q += 2 {
		out[q] = d.Delta
	}
}

// TestSpanViolationFailsRun: a copy outside the span its model declared
// fails Run with one named error, the same text at k = 1 and 2 — whether a
// gather finds it above the span (the row would be dropped before it is
// delivered), below it (its row became a candidate too late to deliver it),
// or only at the horizon, in a row no window read, where it would otherwise
// go undelivered without a word. So does a declared span that is infinite
// or begins before the send, which no row can be posted with.
func TestSpanViolationFailsRun(t *testing.T) {
	const n = 40
	band := UniformDelay{Delta: 4e-4, Eps: 1e-4} // delays in [3e-4, 5e-4]
	const stray, unposted = "outside the span", "not a finite range at or after the send"
	for _, c := range []struct {
		name    string
		lo, hi  float64
		horizon clock.Real
		want    string
	}{
		{"above", 3e-4, 4e-4, 4e-3, stray},
		{"below", 5e-4, 7e-4, 4e-3, stray},
		{"horizon", 5e-4, 7e-4, 4.5e-4, stray},
		{"infinite", 3e-4, math.Inf(1), 4e-3, unposted},
		{"before send", -1e-4, 5e-4, 4e-3, unposted},
	} {
		t.Run(c.name, func(t *testing.T) {
			var first string
			for _, k := range []int{1, 2} {
				cfg := shardWorkload(n, misspan{band, c.lo, c.hi}, nil)
				cfg.Shards = k
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				err = e.Run(c.horizon)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("k=%d: Run = %v, want the error %q", k, err, c.want)
				}
				if k == 1 {
					first = err.Error()
				} else if err.Error() != first {
					t.Fatalf("k=%d reports %q, k=1 %q", k, err, first)
				}
			}
			t.Log(first)
		})
	}
}

// emptyCaster multicasts over empty ranges at its START, and sends nothing
// else.
type emptyCaster struct{}

func (emptyCaster) Receive(ctx *Context, m Message) {
	if m.Kind == KindStart {
		ctx.Multicast(3, 3, nil)
		ctx.Multicast(5, 2, nil)
	}
}

// TestEmptyMulticastPostsNothing: Multicast(lo, lo) on a window posts no
// row, samples and counts no copy and uses no send index.
func TestEmptyMulticastPostsNothing(t *testing.T) {
	cfg := shardWorkload(8, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	for i := range cfg.Procs {
		cfg.Procs[i] = emptyCaster{}
	}
	cfg.Shards = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampled, _, _ := Copies()
	if err := e.Run(1e-2); err != nil {
		t.Fatal(err)
	}
	if after, _, _ := Copies(); after != sampled {
		t.Errorf("%d copies sampled at send", after-sampled)
	}
	if e.MessagesSent() != 0 || len(e.part.board.live) != 0 {
		t.Errorf("%d copies sent, %d rows live", e.MessagesSent(), len(e.part.board.live))
	}
	for _, p := range e.parts {
		for q := range p.senders {
			want := uint64(0)
			if p.part.owner(q) == p.part.id {
				want = 1 // its START's
			}
			if p.senders[q].sidx != want {
				t.Errorf("sender %d used %d send indexes on partition %d, want %d", q, p.senders[q].sidx, p.part.id, want)
			}
		}
	}
}

// TestWindowedRefusesDelaySwap: a windowed engine redraws the rows in flight
// with the delay model of New, and routes them with the channel of New, so
// it refuses to swap either.
func TestWindowedRefusesDelaySwap(t *testing.T) {
	cfg := shardWorkload(8, UniformDelay{Delta: 4e-4, Eps: 1e-4}, nil)
	cfg.Shards = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetDelayModel(ConstantDelay{Delta: 4e-4}); err == nil {
		t.Fatal("a windowed engine swapped its delay model")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a windowed engine swapped its channel")
		}
	}()
	e.SetChannel(LossyLinks{}.BreakBothWays(3, 5))
}

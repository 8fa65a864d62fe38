package sim

import (
	"math"
	"testing"

	"repro/internal/clock"
)

// checkRedraw holds the drawn rows of delay's fan-outs over channel ch (nil:
// the full mesh) to the stored rows they replace, bit for bit. For each kind
// of fan-out — a Broadcast, Multicasts over blocks of 7 ids (the block
// [14, 21) straddles the gather tile boundary at 16 and the partition cut at
// 20) and n Sends — it runs n = 40 shardBeacons on two partitions window by
// window beside a twin whose rows are all stored. At every cut it redraws
// every copy of every drawn row on the board, tile by tile as the gather of
// the copy's partition does, and compares the times with the twin's row
// (math.Float64bits, so a lost copy is NaN in both) and the headers field by
// field; both runs must deliver alike. It returns how many drawn rows it
// compared per kind of fan-out, and under "lost" how many of their copies
// were lost.
func checkRedraw(t *testing.T, delay DelayModel, ch Channel) (drawn map[string]int) {
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
			engs[i] = e
		}
		d, s := engs[0], engs[1]
		s.storeRows()
		for _, e := range engs {
			e.enter()
		}
		for more := true; more; {
			for _, e := range engs {
				var err error
				if more, err = e.window(horizon); err != nil {
					t.Fatal(err)
				}
			}
			ld, ls := d.part.board.live, s.part.board.live
			if len(ld) != len(ls) {
				t.Fatalf("%s: %d rows live, %d with stored rows", fan.name, len(ld), len(ls))
			}
			for i := range ld {
				hd, hs := &ld[i], &ls[i]
				if hs.at == nil {
					t.Fatalf("%s: a fan-out of %d is drawn with stored rows forced", fan.name, hs.from)
				}
				if hd.from != hs.from || hd.lo != hs.lo || hd.m != hs.m || hd.sentAt != hs.sentAt || hd.seq != hs.seq ||
					math.Float64bits(hd.min) != math.Float64bits(hs.min) || math.Float64bits(hd.max) != math.Float64bits(hs.max) {
					t.Fatalf("%s: row %d's header %+v, stored %+v", fan.name, i, *hd, *hs)
				}
				if hd.at != nil {
					continue
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
						got, want := p.times(hd, a, z), (*hs.at)[a-lo:z-lo]
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
		}
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

// TestRedrawWrongDeclarationStores: a model whose declared draws per copy
// disagree with what it draws gets stored rows, and runs the execution its
// honest twin runs — the declaration changes memory, never an execution.
func TestRedrawWrongDeclarationStores(t *testing.T) {
	honest := UniformDelay{Delta: 4e-4, Eps: 1e-4}
	if drawn := checkRedraw(t, miscounted{honest}, nil); len(drawn) != 0 {
		t.Fatalf("a miscounted model published drawn rows: %v", drawn)
	}
	const n = 40
	horizon := clock.Real(4e-3)
	want := runOnShards(t, shardWorkload(n, honest, nil), 2, horizon)
	got := runOnShards(t, shardWorkload(n, miscounted{honest}, nil), 2, horizon)
	if what, ok := equalShardRuns(want, got); !ok {
		t.Fatalf("a miscounted model diverges from the honest one: %s", what)
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

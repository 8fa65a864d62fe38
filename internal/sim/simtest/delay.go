package simtest

import (
	"math"
	"testing"

	"repro/internal/clock"
	"repro/internal/sim"
)

// CheckDelayModel holds m to what it declares as a sim.CounterDelayModel,
// the declarations a windowed engine posts a fan-out in O(1) on and redraws
// its copies by, property-style over random inputs: copies (from, to, at) of
// random fan-outs over [lo, hi) of a 64-process system, at t = 0 (where a
// delay keeps every bit of its sum) and at random times, each on three
// streams — one whose next draw is all zero bits, one whose next draw is
// all one bits (the ends of Float64's range: sim.RNGDrawing) and a random
// one. For every copy, Sample
//
//   - draws exactly DrawsPerCopy values: the stream after it is the stream
//     before it advanced by that many draws;
//   - is a pure function of its inputs: it returns the same bits, and leaves
//     the same stream, when called again on the same stream after a Sample
//     of another copy;
//   - stays inside the declared span: float64(at + clock.Real(d)) lies in
//     [at + min, at + max] for Span(from, lo, hi, at) = (min, max), as the
//     engine forms and checks the delivery time.
//
// A model that batches (sim.BatchDelayModel) must besides return from
// SampleAll(from, n, at, …), for runs of up to 16 copies, the n values and
// the stream that n Sample calls to any n recipients give.
//
// It reports the first failure of each property through t.Errorf only, so a
// test can hand it a recorder to see a wrong model fail.
func CheckDelayModel(t testing.TB, m sim.CounterDelayModel) {
	t.Helper()
	const n, trials = 64, 2000
	pick := sim.NewRNG(29)
	draws := m.DrawsPerCopy()
	batch, _ := m.(sim.BatchDelayModel)
	var counted, pure, spanned, batched bool // a property already reported
	for i := range trials {
		lo := sim.ProcID(pick.Intn(n))
		hi := lo + 1 + sim.ProcID(pick.Intn(n-int(lo)))
		from, to := sim.ProcID(pick.Intn(n)), lo+sim.ProcID(pick.Intn(int(hi-lo)))
		at := clock.Real(0)
		if i%2 == 1 {
			at = clock.Real(float64(pick.Float64() * 100))
		}
		var rng sim.RNG
		switch i % 3 {
		case 0:
			rng = sim.RNGDrawing(0)
		case 1:
			rng = sim.RNGDrawing(^uint64(0))
		default:
			rng = sim.NewRNG(int64(pick.Uint64()))
		}
		r := rng
		d := m.Sample(from, to, at, &r)
		want := rng
		for range draws {
			want.Uint64()
		}
		if r != want && !counted {
			counted = true
			t.Errorf("%T: Sample(%d, %d, %v) does not draw the %d values DrawsPerCopy declares", m, from, to, at, draws)
		}
		other := sim.NewRNG(int64(pick.Uint64()))
		m.Sample(sim.ProcID(pick.Intn(n)), sim.ProcID(pick.Intn(n)), clock.Real(float64(pick.Float64()*100)), &other)
		again := rng
		if d2 := m.Sample(from, to, at, &again); (math.Float64bits(d2) != math.Float64bits(d) || again != r) && !pure {
			pure = true
			t.Errorf("%T: Sample(%d, %d, %v) returned %v, then %v on the same stream", m, from, to, at, d, d2)
		}
		if batch != nil && !batched {
			k := min(int(hi-lo), 16)
			out, one, all := make([]float64, k), rng, rng
			batch.SampleAll(from, k, at, &all, out)
			for q := range out {
				if d := m.Sample(from, lo+sim.ProcID(q), at, &one); math.Float64bits(d) != math.Float64bits(out[q]) && !batched {
					batched = true
					t.Errorf("%T: SampleAll(%d, %d, %v) gives copy %d %v, Sample to %d %v", m, from, k, at, q, out[q], lo+sim.ProcID(q), d)
				}
			}
			if all != one && !batched {
				batched = true
				t.Errorf("%T: SampleAll(%d, %d, %v) leaves another stream than its %d Samples", m, from, k, at, k)
			}
		}
		mn, mx := m.Span(from, lo, hi, at)
		tm, a, z := float64(at+clock.Real(d)), float64(at+clock.Real(mn)), float64(at+clock.Real(mx))
		if !(tm >= a && tm <= z) && !spanned {
			spanned = true
			t.Errorf("%T: the copy %d→%d of a fan-out over [%d, %d) sent at %v delivers at %v, outside its declared span [%v, %v]",
				m, from, to, lo, hi, at, tm, a, z)
		}
	}
}

package marzullo_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/baselines/marzullo"
	"repro/internal/multiset"
)

// encodeVals packs float64 values into the fuzz byte encoding (8 bytes
// little-endian per value).
func encodeVals(vals ...float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// repeat returns gen(0), …, gen(n−1).
func repeat(n int, gen func(i int) float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = gen(i)
	}
	return vals
}

// decodeVals is the inverse, sanitizing arbitrary fuzzer bytes into finite,
// moderately sized values so float64 round-off stays far below the assert
// tolerance: NaN → 0, ±Inf → ±1e6, everything else folded into (−1e6, 1e6).
// With keepInf, ±Inf stay: −Inf is the automata's never-heard sentinel.
func decodeVals(data []byte, keepInf bool) []float64 {
	n := len(data) / 8
	if n > 64 {
		n = 64
	}
	vals := make([]float64, n)
	for i := range vals {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		switch {
		case math.IsNaN(v):
			v = 0
		case math.IsInf(v, 0):
			if !keepInf {
				v = math.Copysign(1e6, v)
			}
		default:
			v = math.Mod(v, 1e6)
		}
		vals[i] = v
	}
	return vals
}

// FuzzFaultTolerantMidpoint differentially tests the paper's averaging
// function mid(reduce_f(U)) (internal/multiset: sort + trim f from each
// side) against Marzullo's interval-intersection sweep (an entirely
// different algorithm: edge events + overlap counting).
//
// The bridge: turn each value v into the interval [v−w, v+w] with
// w > diam(U). Then every Lo edge precedes every Hi edge, so the points
// covered by ≥ n−f intervals form exactly [v₍n−f₎−w, v₍f+1₎+w] — whose
// midpoint is (v₍f+1₎+v₍n−f₎)/2, precisely mid(reduce_f(U)) — and whose
// half-width is w − diam(reduce_f(U))/2. Any disagreement means one of the
// two reductions mishandles ordering, ties, or trimming.
//
// The averager is one more input: on the same bytes, ±Inf kept, the one
// averaging step the automata run — Averager.Average on a scratch copy —
// must return the sorting path's value bit for bit, or fail with it.
func FuzzFaultTolerantMidpoint(f *testing.F) {
	// Seed corpus: the table-driven cases of multiset_test.TestReduce and
	// TestFaultTolerantMidpoint, plus undersized inputs for the error path.
	f.Add(uint8(0), false, encodeVals(2, 1, 3))
	f.Add(uint8(1), true, encodeVals(5, 1, 3, 2, 4))
	f.Add(uint8(2), true, encodeVals(1, 2, 3, 4, 5, 6, 7))
	f.Add(uint8(1), false, encodeVals(1, 2, 3))
	f.Add(uint8(2), true, encodeVals(7, 7, 7, 7, 7))
	f.Add(uint8(1), false, encodeVals(10, 11, 12, 1e9))
	f.Add(uint8(1), true, encodeVals(1, 2))
	f.Add(uint8(3), false, encodeVals())
	f.Add(uint8(2), true, encodeVals(3, math.Inf(-1), 1, 1, math.Inf(-1), 2, 1))
	f.Add(uint8(1), false, encodeVals(math.Inf(-1), math.Inf(-1), 4, math.Inf(1)))
	// Past the selection's insertion-sorted tail (16 values), where it
	// partitions: all equal, all sentinels, and sentinels outnumbering the
	// values heard, grouped and interleaved.
	f.Add(uint8(7), false, encodeVals(repeat(64, func(int) float64 { return 2.5 })...))
	f.Add(uint8(5), true, encodeVals(repeat(40, func(int) float64 { return math.Inf(-1) })...))
	f.Add(uint8(7), false, encodeVals(repeat(64, func(i int) float64 {
		if i < 40 {
			return math.Inf(-1)
		}
		return float64(i % 5)
	})...))
	f.Add(uint8(6), true, encodeVals(repeat(48, func(i int) float64 {
		if i%3 != 0 {
			return math.Inf(-1)
		}
		return float64(i) / 7
	})...))

	f.Fuzz(func(t *testing.T, fRaw uint8, mean bool, data []byte) {
		fc := int(fRaw % 8)

		avg, sorting := multiset.Midpoint, multiset.FaultTolerantMidpoint
		if mean {
			avg, sorting = multiset.Mean, multiset.FaultTolerantMean
		}
		raw := decodeVals(data, true)
		want, wantErr := sorting(multiset.New(raw...), fc)
		av, err := avg.Average(append([]float64(nil), raw...), fc)
		if (err != nil) != (wantErr != nil) || (len(raw) < 2*fc+1) != (err != nil) {
			t.Fatalf("%v.Average(%v, %d): error %v, the sorting path %v", avg, raw, fc, err, wantErr)
		}
		if math.Float64bits(av) != math.Float64bits(want) {
			t.Fatalf("%v.Average(%v, %d) = %v, the sorting path gives %v", avg, raw, fc, av, want)
		}

		vals := decodeVals(data, false)
		n := len(vals)

		u := multiset.New(vals...)
		got, err := multiset.FaultTolerantMidpoint(u, fc)
		if n < 2*fc+1 {
			if err == nil {
				t.Fatalf("FaultTolerantMidpoint accepted |U|=%d with f=%d", n, fc)
			}
			return
		}
		if err != nil {
			t.Fatalf("FaultTolerantMidpoint(%v, %d): %v", vals, fc, err)
		}

		w := u.Diam() + 1
		ivs := make([]marzullo.Interval, n)
		for i, v := range vals {
			ivs[i] = marzullo.Interval{Lo: v - w, Hi: v + w}
		}
		res, err := marzullo.Intersect(ivs, n-fc)
		if err != nil {
			t.Fatalf("Intersect(%v, %d): %v — a quorum must exist when w > diam", ivs, n-fc, err)
		}

		const tol = 1e-6
		if d := math.Abs(res.Mid() - got); d > tol {
			t.Errorf("mid mismatch: multiset %v vs marzullo %v (Δ=%v) on vals=%v f=%d", got, res.Mid(), d, vals, fc)
		}
		red := u.MustReduce(fc)
		if d := math.Abs(res.HalfWidth() - (w - red.Diam()/2)); d > tol {
			t.Errorf("half-width mismatch: %v vs %v on vals=%v f=%d", res.HalfWidth(), w-red.Diam()/2, vals, fc)
		}
		// Lemma 6 invariant shared by both: the result stays within the
		// surviving (trimmed) range.
		if got < red.Min()-tol || got > red.Max()+tol {
			t.Errorf("midpoint %v escaped the reduced range [%v, %v]", got, red.Min(), red.Max())
		}
	})
}

package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"slices"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of vals by linear
// interpolation between the two closest ranks; p = 0.5 of an even count is
// the mean of the two middle values. vals need not be sorted.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// hasTail is the sample-count rule for tail percentiles: the p-quantile of n
// samples is reported only when at least ten samples lie beyond it.
func hasTail(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= 10
}

// quartiles returns the first and third quartile by the exclusive method —
// what Python's statistics.quantiles(vals, n=4) returns, which is the spread
// the benchmark's acceptance rule is stated in. It needs two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1) // 1-based rank below the cut
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	m := median(vals)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// digest is the result check printed beside the metrics: FNV-64a over the
// simulated outcome of a fixed number of ops, so it repeats exactly for a
// seed however long the run measures.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) { d.h.Write(binary.LittleEndian.AppendUint64(nil, v)) }

// add folds one op in: the rendered table when the op has one, otherwise the
// simulated counts and the exact bits of the measured skews and adjustment.
func (d *digest) add(r opResult) {
	if r.table != nil {
		d.h.Write(r.table)
		return
	}
	d.u64(uint64(r.rounds))
	d.u64(uint64(r.msgs))
	d.u64(uint64(r.lost))
	d.u64(math.Float64bits(r.maxSkew))
	d.u64(math.Float64bits(r.steadySkew))
	d.u64(math.Float64bits(r.maxAdj))
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

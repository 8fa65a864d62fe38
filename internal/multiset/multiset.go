// Package multiset implements the Appendix of the paper: finite multisets of
// real numbers, the reduce/mid fault-tolerant averaging function, and the
// x-distance between multisets used in Lemmas 21–24.
//
// The function mid(reduce_f(·)) is the heart of the clock synchronization
// algorithm: reduce discards the f largest and f smallest values (so the
// survivors lie within the range of the nonfaulty values whenever at most f
// values are faulty), and mid takes the midpoint of the survivors' range
// (which halves the error each round).
package multiset

import (
	"fmt"
	"math"
	"sort"
)

// Multiset is a finite collection of real numbers in which the same number
// may appear more than once. The zero value is the empty multiset. Multisets
// are immutable after construction.
type Multiset struct {
	sorted []float64
}

// New builds a multiset from the given values. The input slice is copied.
func New(vals ...float64) Multiset {
	s := make([]float64, len(vals))
	copy(s, vals)
	sort.Float64s(s)
	return Multiset{sorted: s}
}

// Len returns |U|.
func (u Multiset) Len() int { return len(u.sorted) }

// Values returns the elements in ascending order. The caller must not modify
// the returned slice.
func (u Multiset) Values() []float64 { return u.sorted }

// Min returns the smallest element. It panics on an empty multiset, which is
// a programmer error: callers guard with Len.
func (u Multiset) Min() float64 {
	u.mustNonEmpty("Min")
	return u.sorted[0]
}

// Max returns the largest element.
func (u Multiset) Max() float64 {
	u.mustNonEmpty("Max")
	return u.sorted[len(u.sorted)-1]
}

// Diam returns diam(U) = max(U) − min(U).
func (u Multiset) Diam() float64 {
	u.mustNonEmpty("Diam")
	return u.Max() - u.Min()
}

// Mid returns the midpoint ½(max(U)+min(U)) — the paper's ordinary averaging
// function of choice.
func (u Multiset) Mid() float64 {
	u.mustNonEmpty("Mid")
	return (u.Max() + u.Min()) / 2
}

// Mean returns the arithmetic mean — the alternative averaging function
// discussed at the end of §7, which converges at rate f/(n−2f).
func (u Multiset) Mean() float64 {
	u.mustNonEmpty("Mean")
	sum := 0.0
	for _, v := range u.sorted {
		sum += v
	}
	return sum / float64(len(u.sorted))
}

// DropMin returns s(U): U with one occurrence of its minimum removed.
func (u Multiset) DropMin() Multiset {
	u.mustNonEmpty("DropMin")
	return Multiset{sorted: u.sorted[1:]}
}

// DropMax returns l(U): U with one occurrence of its maximum removed.
func (u Multiset) DropMax() Multiset {
	u.mustNonEmpty("DropMax")
	return Multiset{sorted: u.sorted[:len(u.sorted)-1]}
}

// Reduce returns reduce_f(U) = l^f(s^f(U)): U with the f largest and the f
// smallest elements removed. It returns an error unless |U| ≥ 2f+1.
func (u Multiset) Reduce(f int) (Multiset, error) {
	if err := checkReduce(len(u.sorted), f); err != nil {
		return Multiset{}, err
	}
	return Multiset{sorted: u.sorted[f : len(u.sorted)-f]}, nil
}

// checkReduce is reduce_f's precondition on a multiset of n elements.
func checkReduce(n, f int) error {
	if f < 0 {
		return fmt.Errorf("multiset: negative fault bound %d", f)
	}
	if n < 2*f+1 {
		return fmt.Errorf("multiset: reduce needs |U| ≥ 2f+1, got |U|=%d f=%d", n, f)
	}
	return nil
}

// MustReduce is Reduce for callers that have already validated sizes.
func (u Multiset) MustReduce(f int) Multiset {
	r, err := u.Reduce(f)
	if err != nil {
		panic(err)
	}
	return r
}

// Add returns U + r, the multiset with r added to every element.
func (u Multiset) Add(r float64) Multiset {
	s := make([]float64, len(u.sorted))
	for i, v := range u.sorted {
		s[i] = v + r
	}
	return Multiset{sorted: s}
}

// FaultTolerantMidpoint computes mid(reduce_f(U)), the paper's fault-tolerant
// averaging function.
func FaultTolerantMidpoint(u Multiset, f int) (float64, error) {
	r, err := u.Reduce(f)
	if err != nil {
		return 0, err
	}
	return r.Mid(), nil // |reduce_f(U)| ≥ 1 once Reduce accepts
}

// MidpointSelect computes mid(reduce_f(vals)) — the same value
// FaultTolerantMidpoint returns for New(vals...) — without constructing a
// multiset or fully sorting: mid only needs the (f+1)-th smallest and
// (f+1)-th largest elements, which two quickselect passes find in O(n), on
// many equal values too.
// The input slice is reordered in place (callers pass a reusable scratch
// buffer; the clock-sync automaton calls this once per round per process,
// where the full sort dominated the update step at large n). The result is
// bit-identical to the sorting path: selection returns the same element
// values, and the midpoint is computed from the same two floats.
func MidpointSelect(vals []float64, f int) (float64, error) {
	if err := checkReduce(len(vals), f); err != nil {
		return 0, err
	}
	lo := selectKth(vals, f)
	// Quickselect leaves vals partitioned around index f (everything
	// before is ≤ vals[f], everything after is ≥), so the second, larger
	// rank needs only the upper part.
	hi := selectKth(vals[f:], len(vals)-1-2*f)
	return (lo + hi) / 2, nil
}

// selectKth returns the k-th smallest element (0-based), reordering a in
// place: quickselect with median-of-three pivots over a branch-free Lomuto
// partition (the comparison feeds an index, never a jump — Edelkamp & Weiß,
// "BlockQuicksort", ESA 2016), so the mispredictions a branchy partition
// takes on every element go. Each step keeps the side holding rank k; a
// pivot that is the range's minimum also splits off its copies, so every
// step drops at least the pivot and an array of many equal values — ARR
// arrays padded with −Inf never-heard sentinels — stays O(n). Ranges of at
// most 16 elements are insertion-sorted.
func selectKth(a []float64, k int) float64 {
	for len(a) > 16 {
		p := medianOfThree(a[0], a[len(a)/2], a[len(a)-1])
		l := partition(a, func(x float64) bool { return x < p })
		switch {
		case k < l:
			a = a[:l]
		case l > 0:
			a, k = a[l:], k-l
		default: // nothing below p: split off the elements not above it
			e := partition(a, func(x float64) bool { return !(p < x) })
			if k < e {
				return a[k]
			}
			a, k = a[e:], k-e
		}
	}
	for i := 1; i < len(a); i++ {
		x, j := a[i], i
		for ; j > 0 && x < a[j-1]; j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
	return a[k]
}

// partition moves the elements for which front holds to the front of a,
// keeping the rest behind them, and returns how many it moved. Every
// element is swapped with the first one behind the front part, which
// advances by front's result: no branch depends on the data.
func partition(a []float64, front func(float64) bool) int {
	j := 0
	for i, x := range a {
		a[i] = a[j]
		a[j] = x
		j += b2i(front(x))
	}
	return j
}

// b2i is 1 for true and 0 for false, which the compiler emits as a flag
// store (SETcc), not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// medianOfThree returns the median of x, y and z.
func medianOfThree(x, y, z float64) float64 {
	if y < x {
		x, y = y, x
	}
	if z < y {
		y = z
		if y < x {
			y = x
		}
	}
	return y
}

// FaultTolerantMean computes mean(reduce_f(U)), the §7 variant.
func FaultTolerantMean(u Multiset, f int) (float64, error) {
	r, err := u.Reduce(f)
	if err != nil {
		return 0, err
	}
	return r.Mean(), nil // |reduce_f(U)| ≥ 1 once Reduce accepts
}

// Averager selects the ordinary averaging function applied after reduce_f.
// The paper's algorithm uses the midpoint; §7 notes that with f fixed and n
// growing, the mean converges at rate f/(n−2f) and approaches an error of
// about 2ε.
type Averager uint8

// Averaging choices.
const (
	Midpoint Averager = iota + 1
	Mean
)

// String implements fmt.Stringer.
func (a Averager) String() string {
	switch a {
	case Midpoint:
		return "midpoint"
	case Mean:
		return "mean"
	default:
		return fmt.Sprintf("Averager(%d)", uint8(a))
	}
}

// Average computes a(reduce_f(vals)) — bit for bit the value
// FaultTolerantMidpoint or FaultTolerantMean returns for New(vals...) —
// reordering vals in place, so a caller that averages every round passes a
// reusable scratch copy and allocates nothing. The mean is the sorting path
// itself on vals sorted in place.
func (a Averager) Average(vals []float64, f int) (float64, error) {
	switch a {
	case Midpoint:
		return MidpointSelect(vals, f)
	case Mean:
		sort.Float64s(vals)
		return FaultTolerantMean(Multiset{sorted: vals}, f)
	default:
		return 0, fmt.Errorf("multiset: unknown averager %v", a)
	}
}

// DistX returns d_x(U, V), the x-distance between U and V: the minimum over
// injections c: U→V of the number of elements u with |u − c(u)| > x. It
// requires |U| ≤ |V|.
//
// Equivalently |U| minus the maximum number of x-paired elements. Because the
// compatibility relation |u−v| ≤ x over two sorted sequences forms an
// interval bigraph, a greedy sweep over sorted values yields a maximum
// matching (classic two-pointer argument; verified against brute force in
// tests).
func DistX(u, v Multiset, x float64) (int, error) {
	if u.Len() > v.Len() {
		return 0, fmt.Errorf("multiset: DistX needs |U| ≤ |V|, got %d > %d", u.Len(), v.Len())
	}
	if x < 0 {
		return 0, fmt.Errorf("multiset: negative x %v", x)
	}
	matched := 0
	j := 0
	for i := 0; i < u.Len(); i++ {
		// Advance past v-elements too small to pair with u[i]; they can
		// only be worse for later (larger) u-elements.
		for j < v.Len() && v.sorted[j] < u.sorted[i]-x {
			j++
		}
		if j < v.Len() && math.Abs(u.sorted[i]-v.sorted[j]) <= x {
			matched++
			j++
		}
	}
	return u.Len() - matched, nil
}

func (u Multiset) mustNonEmpty(op string) {
	if len(u.sorted) == 0 {
		panic("multiset: " + op + " on empty multiset")
	}
}

// String renders the multiset for diagnostics.
func (u Multiset) String() string {
	return fmt.Sprintf("%v", u.sorted)
}

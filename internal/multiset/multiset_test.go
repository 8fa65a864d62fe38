package multiset

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestBasicAccessors(t *testing.T) {
	u := New(3, 1, 2, 2, 5)
	if u.Len() != 5 {
		t.Errorf("Len = %d, want 5", u.Len())
	}
	if u.Min() != 1 {
		t.Errorf("Min = %v, want 1", u.Min())
	}
	if u.Max() != 5 {
		t.Errorf("Max = %v, want 5", u.Max())
	}
	if u.Diam() != 4 {
		t.Errorf("Diam = %v, want 4", u.Diam())
	}
	if u.Mid() != 3 {
		t.Errorf("Mid = %v, want 3", u.Mid())
	}
	if math.Abs(u.Mean()-2.6) > 1e-12 {
		t.Errorf("Mean = %v, want 2.6", u.Mean())
	}
}

func TestNewCopiesInput(t *testing.T) {
	in := []float64{3, 1, 2}
	u := New(in...)
	in[0] = 100
	if u.Max() != 3 {
		t.Error("New did not copy its input")
	}
}

func TestEmptyPanics(t *testing.T) {
	var u Multiset
	for name, fn := range map[string]func(){
		"Min":     func() { u.Min() },
		"Max":     func() { u.Max() },
		"Mid":     func() { u.Mid() },
		"Mean":    func() { u.Mean() },
		"Diam":    func() { u.Diam() },
		"DropMin": func() { u.DropMin() },
		"DropMax": func() { u.DropMax() },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty multiset did not panic", name)
				}
			}()
			fn()
		})
	}
}

func TestDropMinMax(t *testing.T) {
	u := New(1, 1, 2, 9, 9)
	s := u.DropMin()
	if s.Len() != 4 || s.Min() != 1 {
		t.Errorf("DropMin removed more than one occurrence: %v", s)
	}
	l := u.DropMax()
	if l.Len() != 4 || l.Max() != 9 {
		t.Errorf("DropMax removed more than one occurrence: %v", l)
	}
}

func TestReduce(t *testing.T) {
	tests := []struct {
		name    string
		vals    []float64
		f       int
		want    []float64
		wantErr bool
	}{
		{"f=0 identity", []float64{2, 1, 3}, 0, []float64{1, 2, 3}, false},
		{"f=1", []float64{5, 1, 3, 2, 4}, 1, []float64{2, 3, 4}, false},
		{"f=2", []float64{1, 2, 3, 4, 5, 6, 7}, 2, []float64{3, 4, 5}, false},
		{"exactly 2f+1", []float64{1, 2, 3}, 1, []float64{2}, false},
		{"too small", []float64{1, 2}, 1, nil, true},
		{"negative f", []float64{1, 2, 3}, -1, nil, true},
		{"duplicates", []float64{7, 7, 7, 7, 7}, 2, []float64{7}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := New(tt.vals...).Reduce(tt.f)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			vs := got.Values()
			if len(vs) != len(tt.want) {
				t.Fatalf("got %v, want %v", vs, tt.want)
			}
			for i := range vs {
				if vs[i] != tt.want[i] {
					t.Fatalf("got %v, want %v", vs, tt.want)
				}
			}
		})
	}
}

func TestMustReducePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustReduce on undersized multiset did not panic")
		}
	}()
	New(1).MustReduce(1)
}

func TestAdd(t *testing.T) {
	u := New(1, 2, 3)
	v := u.Add(10)
	want := []float64{11, 12, 13}
	for i, w := range want {
		if v.Values()[i] != w {
			t.Fatalf("Add: got %v, want %v", v.Values(), want)
		}
	}
	// mid(U+r) = mid(U)+r, reduce(U+r) = reduce(U)+r (Appendix remark).
	if v.Mid() != u.Mid()+10 {
		t.Error("Mid does not commute with Add")
	}
	ru := u.MustReduce(1).Add(10)
	rv := v.MustReduce(1)
	if ru.Values()[0] != rv.Values()[0] {
		t.Error("Reduce does not commute with Add")
	}
}

func TestFaultTolerantMidpoint(t *testing.T) {
	// One Byzantine value far away must not affect the result's range.
	got, err := FaultTolerantMidpoint(New(10, 11, 12, 1e9), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got < 10 || got > 12 {
		t.Errorf("midpoint %v escaped the nonfaulty range [10,12]", got)
	}
	if _, err := FaultTolerantMidpoint(New(1, 2), 1); err == nil {
		t.Error("expected error for undersized multiset")
	}
}

func TestFaultTolerantMean(t *testing.T) {
	got, err := FaultTolerantMean(New(1, 2, 3, 4, 1e9), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3) > 1e-12 {
		t.Errorf("mean = %v, want 3", got)
	}
	if _, err := FaultTolerantMean(New(1), 1); err == nil {
		t.Error("expected error for undersized multiset")
	}
}

// bruteDistX computes d_x(U, V) by trying all injections (small sizes only).
func bruteDistX(u, v []float64, x float64) int {
	n, m := len(u), len(v)
	used := make([]bool, m)
	best := n
	var rec func(i, unpaired int)
	rec = func(i, unpaired int) {
		if unpaired >= best {
			return
		}
		if i == n {
			best = unpaired
			return
		}
		for j := 0; j < m; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			extra := 0
			if math.Abs(u[i]-v[j]) > x {
				extra = 1
			}
			rec(i+1, unpaired+extra)
			used[j] = false
		}
	}
	rec(0, 0)
	return best
}

func TestDistXAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		nu := 1 + rng.Intn(5)
		nv := nu + rng.Intn(3)
		u := make([]float64, nu)
		v := make([]float64, nv)
		for i := range u {
			u[i] = math.Round(rng.Float64()*20) / 2
		}
		for i := range v {
			v[i] = math.Round(rng.Float64()*20) / 2
		}
		x := rng.Float64() * 3
		got, err := DistX(New(u...), New(v...), x)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteDistX(u, v, x)
		if got != want {
			t.Fatalf("DistX(%v, %v, %v) = %d, brute force %d", u, v, x, got, want)
		}
	}
}

func TestDistXErrors(t *testing.T) {
	if _, err := DistX(New(1, 2), New(1), 0); err == nil {
		t.Error("expected error when |U| > |V|")
	}
	if _, err := DistX(New(1), New(1, 2), -1); err == nil {
		t.Error("expected error for negative x")
	}
}

func TestDistXZeroWhenEqual(t *testing.T) {
	u := New(1, 2, 3)
	d, err := DistX(u, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("d_0(U,U) = %d, want 0", d)
	}
}

// TestLemma21 checks: |U| = n, |W| ≥ n−f, d_x(W,U) = 0, n ≥ 3f+1 implies
// max(reduce(U)) ≤ max(W)+x and min(reduce(U)) ≥ min(W)−x.
func TestLemma21(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 400; trial++ {
		f := rng.Intn(3)
		n := 3*f + 1 + rng.Intn(4)
		x := rng.Float64()
		// Build W (nonfaulty values) of size n−f … n.
		wsz := n - f + rng.Intn(f+1)
		w := make([]float64, wsz)
		for i := range w {
			w[i] = rng.Float64() * 10
		}
		// U contains each W element perturbed by ≤ x, plus arbitrary fill.
		u := make([]float64, 0, n)
		for _, wv := range w {
			u = append(u, wv+(rng.Float64()*2-1)*x)
		}
		for len(u) < n {
			u = append(u, rng.NormFloat64()*100)
		}
		U, W := New(u...), New(w...)
		if d, err := DistX(W, U, x); err != nil || d != 0 {
			t.Fatalf("setup broken: d_x(W,U) = %v err %v", d, err)
		}
		r := U.MustReduce(f)
		if r.Max() > W.Max()+x+1e-9 {
			t.Fatalf("Lemma 21 max violated: %v > %v", r.Max(), W.Max()+x)
		}
		if r.Min() < W.Min()-x-1e-9 {
			t.Fatalf("Lemma 21 min violated: %v < %v", r.Min(), W.Min()-x)
		}
	}
}

// TestLemma22 checks that dropping the max (or min) of both multisets does
// not increase x-distance.
func TestLemma22(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		nu := 2 + rng.Intn(4)
		nv := nu + rng.Intn(2)
		u := make([]float64, nu)
		v := make([]float64, nv)
		for i := range u {
			u[i] = rng.Float64() * 10
		}
		for i := range v {
			v[i] = rng.Float64() * 10
		}
		x := rng.Float64() * 2
		U, V := New(u...), New(v...)
		d0, err := DistX(U, V, x)
		if err != nil {
			t.Fatal(err)
		}
		dl, err := DistX(U.DropMax(), V.DropMax(), x)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := DistX(U.DropMin(), V.DropMin(), x)
		if err != nil {
			t.Fatal(err)
		}
		if dl > d0 || ds > d0 {
			t.Fatalf("Lemma 22 violated: d=%d, after l: %d, after s: %d (U=%v V=%v x=%v)", d0, dl, ds, u, v, x)
		}
	}
}

// TestLemma23And24 checks the joint setup of Lemmas 23 and 24: if
// d_x(W,U) = d_x(W,V) = 0 with |U| = |V| = n, |W| ≥ n−f, n ≥ 3f+1, then
// min(reduce(U)) − max(reduce(V)) ≤ 2x (L23) and
// |mid(reduce(U)) − mid(reduce(V))| ≤ diam(W)/2 + 2x (L24).
func TestLemma23And24(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 600; trial++ {
		f := rng.Intn(3)
		n := 3*f + 1 + rng.Intn(4)
		x := rng.Float64()
		wsz := n - f + rng.Intn(f+1)
		w := make([]float64, wsz)
		for i := range w {
			w[i] = rng.Float64() * 5
		}
		mk := func() Multiset {
			vals := make([]float64, 0, n)
			for _, wv := range w {
				vals = append(vals, wv+(rng.Float64()*2-1)*x)
			}
			for len(vals) < n {
				vals = append(vals, rng.NormFloat64()*50)
			}
			return New(vals...)
		}
		U, V, W := mk(), mk(), New(w...)
		ru, rv := U.MustReduce(f), V.MustReduce(f)
		if ru.Min()-rv.Max() > 2*x+1e-9 {
			t.Fatalf("Lemma 23 violated: %v - %v > 2x=%v", ru.Min(), rv.Max(), 2*x)
		}
		lhs := math.Abs(ru.Mid() - rv.Mid())
		rhs := W.Diam()/2 + 2*x
		if lhs > rhs+1e-9 {
			t.Fatalf("Lemma 24 violated: |mid−mid| = %v > %v", lhs, rhs)
		}
	}
}

// TestReduceWithinNonfaultyRange is the property behind Lemma 6 of the paper:
// with at most f arbitrary values among n ≥ 3f+1, every survivor of reduce_f
// lies within [min, max] of the nonfaulty values.
func TestReduceWithinNonfaultyRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fCount := rng.Intn(4)
		n := 3*fCount + 1 + rng.Intn(5)
		good := make([]float64, n-fCount)
		for i := range good {
			good[i] = rng.NormFloat64()
		}
		vals := append([]float64(nil), good...)
		for i := 0; i < fCount; i++ {
			vals = append(vals, rng.NormFloat64()*1e6)
		}
		g := New(good...)
		r := New(vals...).MustReduce(fCount)
		return r.Min() >= g.Min() && r.Max() <= g.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	if got := New(2, 1).String(); got != "[1 2]" {
		t.Errorf("String = %q", got)
	}
}

// TestAveragersWithinRange: mid and mean of any nonempty multiset lie within
// [min, max]; reduce never widens the range.
func TestAveragersWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		u := New(vals...)
		if u.Mid() < u.Min() || u.Mid() > u.Max() {
			return false
		}
		if u.Mean() < u.Min()-1e-9 || u.Mean() > u.Max()+1e-9 {
			return false
		}
		for fc := 0; 2*fc+1 <= n; fc++ {
			r := u.MustReduce(fc)
			if r.Min() < u.Min() || r.Max() > u.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDistXTriangleZero: d_x(U, U) = 0 for every x ≥ 0 and d grows as x
// shrinks.
func TestDistXMonotoneInX(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		u := make([]float64, n)
		v := make([]float64, n)
		for i := range u {
			u[i] = rng.Float64() * 10
			v[i] = rng.Float64() * 10
		}
		U, V := New(u...), New(v...)
		prev := -1
		for _, x := range []float64{0, 0.5, 1, 2, 4, 8, 16} {
			d, err := DistX(U, V, x)
			if err != nil {
				return false
			}
			if prev >= 0 && d > prev {
				return false // distance must not increase with larger x
			}
			prev = d
		}
		// At x covering the whole range, everything pairs.
		d, _ := DistX(U, V, 20)
		return d == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMidpointSelectMatchesSort holds MidpointSelect to the sorting path bit
// for bit on arrays of every size up to a few partition steps, drawn from a
// handful of values with ±Inf among them, so ties, all-equal ranges and the
// insertion-sorted tail all occur.
func TestMidpointSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pool := []float64{math.Inf(-1), -2.5, -1, 0, 0.25, 1, 3, math.Inf(1)}
	for it := 0; it < 20000; it++ {
		n := 1 + rng.Intn(200)
		distinct := 1 + rng.Intn(len(pool))
		vals := make([]float64, n)
		for i := range vals {
			if rng.Intn(4) == 0 {
				vals[i] = rng.NormFloat64()
			} else {
				vals[i] = pool[rng.Intn(distinct)]
			}
		}
		f := rng.Intn((n-1)/2 + 1)
		want, _ := FaultTolerantMidpoint(New(vals...), f)
		got, err := MidpointSelect(append([]float64(nil), vals...), f)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MidpointSelect(%v, %d) = %v, %v; the sorting path gives %v", vals, f, got, err, want)
		}
	}
}

// TestMidpointSelectLinear: selection stays linear on the inputs a plain
// Lomuto partition takes quadratic time on — 2¹⁷ equal values, and 2¹⁷
// values of which half are the −Inf never-heard sentinel, grouped or
// interleaved. At 2¹⁷ a quadratic select runs for seconds (minutes under
// the race detector); a linear one takes milliseconds.
func TestMidpointSelectLinear(t *testing.T) {
	const n, f = 1 << 17, (1<<17 - 1) / 3
	rng := rand.New(rand.NewSource(17))
	cases := map[string]func(i int) float64{
		"all-equal": func(int) float64 { return 1.5 },
		"half-inf/grouped": func(i int) float64 {
			if i < n/2 {
				return math.Inf(-1)
			}
			return rng.Float64()
		},
		"half-inf/interleaved": func(i int) float64 {
			if i%2 == 0 {
				return math.Inf(-1)
			}
			return rng.Float64()
		},
	}
	for name, gen := range cases {
		t.Run(name, func(t *testing.T) {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = gen(i)
			}
			want, _ := FaultTolerantMidpoint(New(vals...), f)
			done := make(chan float64, 1)
			go func() {
				got, _ := MidpointSelect(vals, f)
				done <- got
			}()
			select {
			case got := <-done:
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("MidpointSelect = %v, the sorting path gives %v", got, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("MidpointSelect did not finish in 10 s: the selection is not linear on this input")
			}
		})
	}
}

// BenchmarkMidpointSelect prices one midpoint at the three benchmarked sizes
// on arrival-shaped input — a trend over sender ids under jitter twice its
// span, as a §4.2 round's ARR looks — with f = ⌊(n−1)/3⌋. Every call gets a
// fresh copy; the copy is part of the price, as it is in core.Round.Adjust.
func BenchmarkMidpointSelect(b *testing.B) {
	for _, n := range []int{7, 101, 1009} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			srcs := make([][]float64, 16)
			for j := range srcs {
				srcs[j] = make([]float64, n)
				for i := range srcs[j] {
					srcs[j][i] = float64(i)/float64(n) + 2*rng.Float64()
				}
			}
			scratch := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(scratch, srcs[i%len(srcs)])
				if _, err := MidpointSelect(scratch, (n-1)/3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

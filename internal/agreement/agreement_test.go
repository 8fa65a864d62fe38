package agreement

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/multiset"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{N: 4, F: 1}).Validate(); err != nil {
		t.Errorf("4,1 should validate: %v", err)
	}
	if err := (Config{N: 3, F: 1}).Validate(); err == nil {
		t.Error("3,1 violates n ≥ 3f+1")
	}
	if err := (Config{N: 4, F: -1}).Validate(); err == nil {
		t.Error("negative f accepted")
	}
	if err := (Config{N: 4, F: 1, Averager: Averager(7)}).Validate(); err == nil {
		t.Error("unknown averager accepted")
	}
}

// TestZeroAveragerIsMidpoint: the Averager type is shared with core and
// multiset, where zero is not a choice; here it keeps meaning Midpoint.
func TestZeroAveragerIsMidpoint(t *testing.T) {
	init := []float64{0, 1, 3, 8, 9, 20, 21}
	var got [2][]float64
	for i, av := range []Averager{0, Midpoint} {
		st, err := New(Config{N: 7, F: 2, Averager: av}, init, make([]bool, 7))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Step(); err != nil {
			t.Fatal(err)
		}
		got[i] = st.Values()
	}
	for p := range got[0] {
		if got[0][p] != got[1][p] || got[0][p] != (3.0+9.0)/2 {
			t.Errorf("process %d: zero averager %v, Midpoint %v, want 6", p, got[0][p], got[1][p])
		}
	}
}

func TestNewValidation(t *testing.T) {
	cfg := Config{N: 4, F: 1}
	if _, err := New(cfg, []float64{1, 2, 3}, make([]bool, 4)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := New(cfg, make([]float64, 4), []bool{true, true, false, false}); err == nil {
		t.Error("too many faulty accepted")
	}
	if _, err := New(cfg, make([]float64, 4), []bool{true, false, false, false}); err == nil {
		t.Error("faulty without adversary accepted")
	}
}

func TestFaultFreeMidpointHalvesExactly(t *testing.T) {
	cfg := Config{N: 4, F: 1, Averager: Midpoint}
	st, err := New(cfg, []float64{0, 1, 3, 8}, make([]bool, 4))
	if err != nil {
		t.Fatal(err)
	}
	d0 := st.Diameter()
	if err := st.Step(); err != nil {
		t.Fatal(err)
	}
	d1 := st.Diameter()
	if d1 > d0/2+1e-12 {
		t.Errorf("diameter %v → %v did not halve", d0, d1)
	}
}

func TestConvergenceWithByzantine(t *testing.T) {
	cfg := Config{N: 7, F: 2, Averager: Midpoint}
	adv := &SpreadAdversary{}
	cfg.Adversary = adv
	faulty := []bool{false, false, false, false, false, true, true}
	init := []float64{0, 2, 5, 9, 10, 999, -999}
	st, err := New(cfg, init, faulty)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		vals := multiset.New(st.Values()...)
		adv.Observe(vals.Min(), vals.Max())
		if err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if d := st.Diameter(); d > 1e-6 {
		t.Errorf("diameter %v after 40 rounds, want ≈ 0", d)
	}
}

// TestValidityProperty: nonfaulty values always stay within the initial
// nonfaulty range, under a randomized two-faced adversary.
func TestValidityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fc := rng.Intn(3)
		n := 3*fc + 1 + rng.Intn(4)
		init := make([]float64, n)
		faulty := make([]bool, n)
		for i := range init {
			init[i] = rng.NormFloat64() * 10
		}
		for i := 0; i < fc; i++ {
			faulty[rng.Intn(n)] = true // may mark < fc distinct, fine
		}
		adv := AdversaryFunc(func(round, from, to int) float64 {
			return rng.NormFloat64() * 1e3
		})
		cfg := Config{N: n, F: fc, Averager: Midpoint, Adversary: adv}
		st, err := New(cfg, init, faulty)
		if err != nil {
			return false
		}
		good := multiset.New(st.Values()...)
		lo, hi := good.Min(), good.Max()
		for r := 0; r < 6; r++ {
			if err := st.Step(); err != nil {
				return false
			}
			for _, v := range st.Values() {
				if v < lo-1e-9 || v > hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestHalvingProperty: with the midpoint, the nonfaulty diameter at least
// halves each round regardless of adversary behavior.
func TestHalvingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fc := 1 + rng.Intn(2)
		n := 3*fc + 1 + rng.Intn(3)
		init := make([]float64, n)
		faulty := make([]bool, n)
		for i := range init {
			init[i] = rng.Float64() * 100
		}
		marked := 0
		for i := 0; i < n && marked < fc; i++ {
			if rng.Intn(2) == 0 {
				faulty[i] = true
				marked++
			}
		}
		adv := &SpreadAdversary{}
		cfg := Config{N: n, F: fc, Averager: Midpoint, Adversary: adv}
		st, err := New(cfg, init, faulty)
		if err != nil {
			return false
		}
		for r := 0; r < 5; r++ {
			vals := multiset.New(st.Values()...)
			adv.Observe(vals.Min(), vals.Max())
			before := st.Diameter()
			if err := st.Step(); err != nil {
				return false
			}
			if st.Diameter() > before/2+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestMeanConvergenceRate: with f=1 and growing n, the mean contracts the
// diameter by ≈ f/(n−2f) per round under the spread adversary.
func TestMeanConvergenceRate(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		adv := &SpreadAdversary{}
		cfg := Config{N: n, F: 1, Averager: Mean, Adversary: adv}
		init := make([]float64, n)
		faulty := make([]bool, n)
		faulty[n-1] = true
		for i := 0; i < n-1; i++ {
			init[i] = float64(i) / float64(n-2) // nonfaulty spread over [0,1]
		}
		st, err := New(cfg, init, faulty)
		if err != nil {
			t.Fatal(err)
		}
		vals := multiset.New(st.Values()...)
		adv.Observe(vals.Min(), vals.Max())
		before := st.Diameter()
		if err := st.Step(); err != nil {
			t.Fatal(err)
		}
		after := st.Diameter()
		rate := after / before
		wantMax := float64(cfg.F)/float64(n-2*cfg.F) + 0.02
		if rate > wantMax {
			t.Errorf("n=%d: mean contraction rate %v exceeds f/(n−2f)=%v", n, rate, wantMax)
		}
	}
}

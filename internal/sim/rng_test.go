package sim

import "testing"

func TestRNGDeterministicPerSeed(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: same seed diverged: %x vs %x", i, x, y)
		}
	}
	c := NewRNG(43)
	if a := NewRNG(42); a.Uint64() == c.Uint64() {
		t.Error("different seeds produced the same first draw")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	var min, max float64 = 1, 0
	for i := 0; i < 10_000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v outside [0,1)", f)
		}
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	// With 10k draws the extremes should come close to the interval ends;
	// this catches scaling bugs (e.g. dividing by 2⁶⁴ instead of 2⁵³).
	if min > 0.01 || max < 0.99 {
		t.Errorf("draws span [%v, %v]; expected nearly [0,1)", min, max)
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) hit only %d of 10 values in 1000 draws", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestProcSeedSeparation(t *testing.T) {
	seen := make(map[int64]ProcID)
	for pid := ProcID(0); pid < 64; pid++ {
		s := procSeed(1, pid)
		if prev, dup := seen[s]; dup {
			t.Fatalf("procSeed(1, %d) == procSeed(1, %d)", pid, prev)
		}
		seen[s] = pid
	}
	if procSeed(1, 0) == procSeed(2, 0) {
		t.Error("different engine seeds gave process 0 the same stream")
	}
}

// TestRNGDrawing: RNGDrawing(v) draws v next, at both ends of the range and
// between, so Float64 reaches 0 and MaxFloat64Draw.
func TestRNGDrawing(t *testing.T) {
	pick := NewRNG(11)
	for _, v := range []uint64{0, ^uint64(0), 1, 1 << 63, pick.Uint64(), pick.Uint64()} {
		if r := RNGDrawing(v); r.Uint64() != v {
			t.Fatalf("RNGDrawing(%#x) drew something else", v)
		}
	}
	if lo, hi := RNGDrawing(0), RNGDrawing(^uint64(0)); lo.Float64() != 0 || hi.Float64() != MaxFloat64Draw {
		t.Fatal("the extreme draws do not give Float64's ends")
	}
}

package stream

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestFreqBasic(t *testing.T) {
	f := NewFreq(Slice{1, 2, 2, 3, 3, 3})
	if f.F0() != 3 {
		t.Fatalf("F0 = %d, want 3", f.F0())
	}
	if f.F1() != 6 {
		t.Fatalf("F1 = %d, want 6", f.F1())
	}
	if got := f.Fk(2); got != 1+4+9 {
		t.Fatalf("F2 = %v, want 14", got)
	}
	if got := f.Fk(3); got != 1+8+27 {
		t.Fatalf("F3 = %v, want 36", got)
	}
}

func TestFreqEmpty(t *testing.T) {
	f := NewFreq(Slice{})
	if f.F0() != 0 || f.F1() != 0 || f.Fk(2) != 0 || f.Entropy() != 0 {
		t.Fatalf("empty stream stats nonzero: %+v", f)
	}
}

func TestEntropyUniform(t *testing.T) {
	// 8 items once each: entropy = 3 bits.
	s := Slice{1, 2, 3, 4, 5, 6, 7, 8}
	if got := NewFreq(s).Entropy(); !almostEqual(got, 3, 1e-12) {
		t.Fatalf("uniform entropy = %v, want 3", got)
	}
}

func TestEntropyConstant(t *testing.T) {
	s := Slice{5, 5, 5, 5}
	if got := NewFreq(s).Entropy(); got != 0 {
		t.Fatalf("constant-stream entropy = %v, want 0", got)
	}
}

func TestEntropyTwoPoint(t *testing.T) {
	// Frequencies (3, 1): H = 3/4·lg(4/3) + 1/4·lg 4.
	s := Slice{1, 1, 1, 2}
	want := 0.75*math.Log2(4.0/3) + 0.25*2
	if got := NewFreq(s).Entropy(); !almostEqual(got, want, 1e-12) {
		t.Fatalf("entropy = %v, want %v", got, want)
	}
}

func TestEntropyMaximalForUniform(t *testing.T) {
	// Property: for any frequency vector on d items, H ≤ lg d.
	f := func(counts [6]uint8) bool {
		s := Slice{}
		d := 0
		for i, c := range counts {
			if c == 0 {
				continue
			}
			d++
			for j := 0; j < int(c); j++ {
				s = append(s, Item(i+1))
			}
		}
		if d == 0 {
			return true
		}
		h := NewFreq(s).Entropy()
		return h <= math.Log2(float64(d))+1e-9 && h >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCollisions(t *testing.T) {
	// Frequencies: 4, 2, 1. C2 = 6+1+0 = 7; C3 = 4; C4 = 1; C5 = 0.
	s := Slice{1, 1, 1, 1, 2, 2, 3}
	f := NewFreq(s)
	for _, c := range []struct {
		l    int
		want float64
	}{{1, 7}, {2, 7}, {3, 4}, {4, 1}, {5, 0}} {
		if got := f.Collisions(c.l); got != c.want {
			t.Fatalf("C%d = %v, want %v", c.l, got, c.want)
		}
	}
}

func TestCollisionsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Collisions(0) did not panic")
		}
	}()
	NewFreq(Slice{1}).Collisions(0)
}

func TestBinomialCoeff(t *testing.T) {
	cases := []struct {
		n    uint64
		k    int
		want float64
	}{
		{5, 2, 10}, {5, 0, 1}, {5, 5, 1}, {4, 5, 0}, {0, 0, 1},
		{10, 3, 120}, {52, 5, 2598960},
	}
	for _, c := range cases {
		if got := BinomialCoeff(c.n, c.k); got != c.want {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialCoeffPascal(t *testing.T) {
	// Property: Pascal's identity C(n,k) = C(n−1,k−1) + C(n−1,k).
	f := func(nRaw, kRaw uint8) bool {
		n := uint64(nRaw%40) + 1
		k := int(kRaw%10) + 1
		lhs := BinomialCoeff(n, k)
		rhs := BinomialCoeff(n-1, k-1) + BinomialCoeff(n-1, k)
		return almostEqual(lhs, rhs, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialCoeffFloatMatchesInteger(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := uint64(nRaw % 50)
		k := int(kRaw % 8)
		return almostEqual(BinomialCoeffFloat(float64(n), k), BinomialCoeff(n, k), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialCoeffFloatClamp(t *testing.T) {
	// Below k−1 the value clamps to 0 (no k-collisions possible there);
	// between k−1 and k the generalized coefficient is fractional — this
	// is what keeps the banded collision estimate from dropping whole
	// bands whose representative sits just under an integer frequency.
	if got := BinomialCoeffFloat(0.9, 2); got != 0 {
		t.Fatalf("C(0.9, 2) = %v, want 0 (clamped)", got)
	}
	if got := BinomialCoeffFloat(1.0, 2); got != 0 {
		t.Fatalf("C(1.0, 2) = %v, want 0", got)
	}
	if got := BinomialCoeffFloat(1.96, 2); !almostEqual(got, 1.96*0.96/2, 1e-12) {
		t.Fatalf("C(1.96, 2) = %v, want %v", got, 1.96*0.96/2)
	}
	if got := BinomialCoeffFloat(2.5, 2); !almostEqual(got, 2.5*1.5/2, 1e-12) {
		t.Fatalf("C(2.5, 2) = %v", got)
	}
}

func TestFkHeavyHitters(t *testing.T) {
	// Frequencies: item 1 → 50, item 2 → 30, items 3..22 → 1 each.
	var s Slice
	for i := 0; i < 50; i++ {
		s = append(s, 1)
	}
	for i := 0; i < 30; i++ {
		s = append(s, 2)
	}
	for i := Item(3); i <= 22; i++ {
		s = append(s, i)
	}
	f := NewFreq(s)
	n := float64(f.F1()) // 100
	// α = 0.3: threshold 30 → items 1 and 2.
	hh := f.FkHeavyHitters(1, 0.3)
	if len(hh) != 2 || hh[0].Item != 1 || hh[1].Item != 2 {
		t.Fatalf("F1 HH = %+v", hh)
	}
	// α = 0.4: threshold 40 → only item 1.
	hh = f.FkHeavyHitters(1, 0.4)
	if len(hh) != 1 || hh[0].Item != 1 || hh[0].Freq != 50 {
		t.Fatalf("F1 HH = %+v", hh)
	}
	// F2 threshold: sqrt(F2) = sqrt(2500+900+20).
	sqrtF2 := math.Sqrt(f.Fk(2))
	alpha := 29.9 / sqrtF2
	hh = f.FkHeavyHitters(2, alpha)
	if len(hh) != 2 {
		t.Fatalf("F2 HH with α=%v: %+v (sqrtF2=%v, n=%v)", alpha, hh, sqrtF2, n)
	}
}

func TestTopK(t *testing.T) {
	f := NewFreq(Slice{1, 1, 1, 2, 2, 3, 4, 4})
	top := f.TopK(2)
	if len(top) != 2 || top[0].Item != 1 || top[0].Freq != 3 {
		t.Fatalf("TopK = %+v", top)
	}
	// Tie between 2 and 4 (freq 2): lower item id first.
	if top[1].Item != 2 {
		t.Fatalf("TopK tie-break wrong: %+v", top)
	}
	if got := f.TopK(100); len(got) != 4 {
		t.Fatalf("TopK over-size = %+v", got)
	}
}

func TestComputeExact(t *testing.T) {
	s := Slice{1, 2, 2, 3, 3, 3}
	ex := ComputeExact(s)
	if ex.N != 6 || ex.F0 != 3 || ex.F2 != 14 || ex.F3 != 36 || ex.F4 != 1+16+81 {
		t.Fatalf("ComputeExact = %+v", ex)
	}
	want := NewFreq(s).Entropy()
	if !almostEqual(ex.Entropy, want, 1e-12) {
		t.Fatalf("entropy %v, want %v", ex.Entropy, want)
	}
}

// TestMomentMonotonicity checks F_i ≤ F_j for i ≤ j (used by Lemma 4's
// proof), which holds for any frequency vector with integer frequencies
// ≥ 1... specifically F_i(P) ≤ F_j(P) when i ≤ j since f ≥ 1 termwise.
func TestMomentMonotonicity(t *testing.T) {
	f := func(counts [8]uint8) bool {
		s := Slice{}
		for i, c := range counts {
			for j := 0; j < int(c%20); j++ {
				s = append(s, Item(i+1))
			}
		}
		fr := NewFreq(s)
		prev := fr.Fk(1)
		for k := 2; k <= 5; k++ {
			cur := fr.Fk(k)
			if cur+1e-9 < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

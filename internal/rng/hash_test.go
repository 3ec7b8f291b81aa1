package rng

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestMulmod61MatchesBigArithmetic(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= mersenne61
		b %= mersenne61
		hi, lo := mul64(a, b)
		return mulmod61(a, b) == foldMod61(hi, lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// foldMod61 is an independent, slower reduction of hi·2^64 + lo modulo
// 2^61−1, used to cross-check mulmod61. It uses 2^64 ≡ 8 (mod 2^61−1)
// and folds lo as (lo >> 61) + (lo & M), since 2^61 ≡ 1.
func foldMod61(hi, lo uint64) uint64 {
	loMod := modAdd(lo&mersenne61, lo>>61)
	hiMod := mulSmallMod(hi%mersenne61, 8)
	return modAdd(hiMod, loMod)
}

func modAdd(a, b uint64) uint64 {
	s := a + b
	if s >= mersenne61 {
		s -= mersenne61
	}
	return s
}

// mulSmallMod multiplies a (< M) by a small constant c (≤ 8) mod M.
func mulSmallMod(a, c uint64) uint64 {
	var acc uint64
	for i := uint64(0); i < c; i++ {
		acc = modAdd(acc, a)
	}
	return acc
}

func TestAddmod61(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0},
		{1, 2, 3},
		{mersenne61 - 1, 1, 0},
		{mersenne61 - 1, mersenne61 - 1, mersenne61 - 2},
	}
	for _, c := range cases {
		if got := addmod61(c.a, c.b); got != c.want {
			t.Errorf("addmod61(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPolyHashInRange(t *testing.T) {
	r := New(1)
	h := NewPolyHash(4, r)
	for i := uint64(0); i < 100000; i++ {
		if v := h.Hash(i); v >= mersenne61 {
			t.Fatalf("hash(%d) = %d out of field", i, v)
		}
	}
}

func TestPolyHashDeterministic(t *testing.T) {
	h := NewPolyHash(3, New(99))
	a, b := h.Hash(12345), h.Hash(12345)
	if a != b {
		t.Fatalf("hash not deterministic: %d vs %d", a, b)
	}
}

func TestPolyHashBucketUniformity(t *testing.T) {
	r := New(2)
	h := NewPolyHash(2, r)
	const buckets, n = 16, 320000
	counts := make([]int, buckets)
	for i := uint64(0); i < n; i++ {
		counts[h.Bucket(i, buckets)]++
	}
	expected := float64(n) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 dof, 99.99% ≈ 44.3. Allow 60.
	if chi2 > 60 {
		t.Fatalf("bucket uniformity chi2 = %v", chi2)
	}
}

func TestPolyHashPairwiseCollisionRate(t *testing.T) {
	// Pairwise independence implies collision probability ≈ 1/buckets
	// over the random choice of hash function.
	const buckets = 64
	const funcs = 4000
	r := New(3)
	collisions := 0
	for i := 0; i < funcs; i++ {
		h := NewPolyHash(2, r)
		if h.Bucket(17, buckets) == h.Bucket(91, buckets) {
			collisions++
		}
	}
	got := float64(collisions) / funcs
	want := 1.0 / buckets
	tol := 6 * math.Sqrt(want*(1-want)/funcs)
	if math.Abs(got-want) > tol {
		t.Fatalf("pairwise collision rate %v, want %v ± %v", got, want, tol)
	}
}

func TestPolyHashSignBalance(t *testing.T) {
	// Over random functions, E[sign(x)] ≈ 0 and signs of two fixed keys
	// are uncorrelated (4-wise family).
	const funcs = 4000
	r := New(4)
	var sum, prod int
	for i := 0; i < funcs; i++ {
		h := NewPolyHash(4, r)
		s1, s2 := h.Sign(5), h.Sign(1234567)
		sum += s1
		prod += s1 * s2
	}
	if math.Abs(float64(sum))/funcs > 0.1 {
		t.Fatalf("sign bias: mean %v", float64(sum)/funcs)
	}
	if math.Abs(float64(prod))/funcs > 0.1 {
		t.Fatalf("sign correlation: mean product %v", float64(prod)/funcs)
	}
}

func TestPolyHashUnitRangeAndUniformity(t *testing.T) {
	h := NewPolyHash(2, New(5))
	const n = 200000
	var sum float64
	for i := uint64(0); i < n; i++ {
		u := h.Unit(i)
		if u <= 0 || u > 1 {
			t.Fatalf("Unit out of (0,1]: %v", u)
		}
		sum += u
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Unit mean %v, want ≈ 0.5", mean)
	}
}

func TestNewPolyHashPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPolyHash(0) did not panic")
		}
	}()
	NewPolyHash(0, New(1))
}

func TestMix64Bijective(t *testing.T) {
	// mix64 must not collide on a modest sample (it is a bijection), or
	// laneQuads would fill lanes with repeats.
	seen := make(map[uint64]uint64, 100000)
	for i := uint64(0); i < 100000; i++ {
		v := mix64(i)
		if prev, ok := seen[v]; ok {
			t.Fatalf("mix64 collision: %d and %d both map to %#x", prev, i, v)
		}
		seen[v] = i
	}
}

func TestMod61MatchesDivide(t *testing.T) {
	cases := []uint64{0, 1, mersenne61 - 1, mersenne61, mersenne61 + 1,
		1 << 61, 1<<61 + 5, ^uint64(0), ^uint64(0) - 6}
	for _, x := range cases {
		if got, want := Mod61(x), x%mersenne61; got != want {
			t.Fatalf("Mod61(%#x) = %d, want %d", x, got, want)
		}
	}
	f := func(x uint64) bool { return Mod61(x) == x%mersenne61 }
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestHash2MatchesPolyHash pins the refactor's core invariant: the flat
// degree-1 kernel consumes the same generator draws and produces the same
// hash values as the PolyHash it replaces, so every seeded sketch keeps
// its exact pre-refactor state.
func TestHash2MatchesPolyHash(t *testing.T) {
	rA, rB := New(42), New(42)
	for round := 0; round < 32; round++ {
		p := NewPolyHash(2, rA)
		h := NewHash2(rB)
		if want := p.Coefficients(); h.B != want[0] || h.A != want[1] {
			t.Fatalf("round %d: coefficient draws diverge: %+v vs %v", round, h, want)
		}
		for _, x := range []uint64{0, 1, 7, 1 << 40, ^uint64(0), 0x9e3779b97f4a7c15} {
			if h.Hash(x) != p.Hash(x) {
				t.Fatalf("round %d: Hash2(%#x) = %d, PolyHash = %d", round, x, h.Hash(x), p.Hash(x))
			}
		}
	}
}

// TestHash4MatchesPolyHash is the 4-wise twin of TestHash2MatchesPolyHash.
func TestHash4MatchesPolyHash(t *testing.T) {
	rA, rB := New(43), New(43)
	for round := 0; round < 32; round++ {
		p := NewPolyHash(4, rA)
		h := NewHash4(rB)
		for i, c := range []uint64{h.C0, h.C1, h.C2, h.C3} {
			if c != p.Coefficients()[i] {
				t.Fatalf("round %d: coefficient %d diverges", round, i)
			}
		}
		for _, x := range []uint64{0, 1, 7, 1 << 40, ^uint64(0), 0xdeadbeef} {
			if h.Hash(x) != p.Hash(x) {
				t.Fatalf("round %d: Hash4(%#x) = %d, PolyHash = %d", round, x, h.Hash(x), p.Hash(x))
			}
			if h.Sign(x) != p.Sign(x) {
				t.Fatalf("round %d: Sign(%#x) diverges", round, x)
			}
		}
	}
}

// TestRangeBucketExact pins the fastrange reduction: Bucket(h) must be
// exactly floor(h·n / 2^61) and land in [0, n) for every field hash,
// across bucket counts from 1 to sketch-sized, with the distribution
// matching the contiguous-slice map the analysis assumes.
func TestRangeBucketExact(t *testing.T) {
	ns := []uint64{1, 2, 3, 5, 7, 16, 64, 100, 1023, 1024, 4096, 5910,
		1<<24 - 3, 1 << 24}
	hashes := []uint64{0, 1, 2, 63, 64, 1<<60 + 12345, 1<<61 - 3, 1<<61 - 2}
	for _, n := range ns {
		rr := NewRange(n)
		for _, h := range hashes {
			got := rr.Bucket(h)
			// Independent reference: floor(h·n / 2^61) in big-int math.
			want := new(big.Int).Mul(new(big.Int).SetUint64(h), new(big.Int).SetUint64(n))
			want.Rsh(want, 61)
			if got != want.Uint64() || got >= n {
				t.Fatalf("Range(%d).Bucket(%d) = %d, want %d (< %d)", n, h, got, want.Uint64(), n)
			}
		}
	}
	// Monotone and balanced: consecutive hash ranges of equal size map to
	// consecutive buckets.
	rr := NewRange(16)
	prev := uint64(0)
	for h := uint64(0); h < 1<<61-1; h += (1 << 61) / 97 {
		b := rr.Bucket(h)
		if b < prev {
			t.Fatalf("Bucket not monotone: h=%d gave %d after %d", h, b, prev)
		}
		prev = b
	}
}

func TestNewRangePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRange(0) did not panic")
		}
	}()
	NewRange(0)
}

func BenchmarkHash2Bucket(b *testing.B) {
	h := NewHash2(New(1))
	rr := NewRange(5910)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += rr.Bucket(h.Hash(uint64(i)))
	}
	_ = sink
}

func BenchmarkPolyHash2BucketDivide(b *testing.B) {
	h := NewPolyHash(2, New(1))
	var sink int
	for i := 0; i < b.N; i++ {
		sink += h.Bucket(uint64(i), 5910)
	}
	_ = sink
}

func BenchmarkPolyHash4Wise(b *testing.B) {
	h := NewPolyHash(4, New(1))
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += h.Hash(uint64(i))
	}
	_ = sink
}

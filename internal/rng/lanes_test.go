package rng

import (
	"testing"
	"testing/quick"
)

// laneEdgeCases are the inputs most likely to expose a reduction bug in
// the lane kernels: field boundaries, the Mersenne fold's carry points,
// and full-width values.
var laneEdgeCases = []uint64{
	0, 1, 2, 6, 7,
	mersenne61 - 2, mersenne61 - 1, mersenne61, mersenne61 + 1, mersenne61 + 7,
	1<<61 - 1, 1 << 61, 1<<61 + 1, 1 << 62, 1<<62 + 3,
	^uint64(0), ^uint64(0) - 1, ^uint64(0) - 7,
	0x9e3779b97f4a7c15, 0xdeadbeefcafebabe,
}

// mix64 is a fixed strong bit-mixer (the SplitMix64 finalizer), the
// deterministic scramble laneQuads fills lanes with.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// laneQuads walks every aligned 4-tuple over the cross product of the
// edge cases plus deterministic pseudo-random fill, invoking check on
// each. The sweep is exhaustive over the edge set in every lane
// position: each edge value appears in lane 0, 1, 2, and 3 against
// varied neighbors.
func laneQuads(check func(x0, x1, x2, x3 uint64)) {
	n := len(laneEdgeCases)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// Rotate the edge value through all four lane positions.
			a, b := laneEdgeCases[i], laneEdgeCases[j]
			check(a, b, mix64(a), mix64(b))
			check(b, a, mix64(b), mix64(a))
			check(mix64(a), a, b, mix64(b))
			check(mix64(a), mix64(b), a, b)
		}
	}
}

// TestMod61Lanes4MatchesScalar pins the lane reduction to the scalar
// one, exhaustively over the edge-case sweep and by randomized check.
func TestMod61Lanes4MatchesScalar(t *testing.T) {
	laneQuads(func(x0, x1, x2, x3 uint64) {
		r0, r1, r2, r3 := Mod61Lanes4(x0, x1, x2, x3)
		for i, pair := range [][2]uint64{{r0, x0}, {r1, x1}, {r2, x2}, {r3, x3}} {
			if want := Mod61(pair[1]); pair[0] != want {
				t.Fatalf("lane %d: Mod61Lanes4(%#x) = %d, scalar = %d", i, pair[1], pair[0], want)
			}
		}
	})
	f := func(x0, x1, x2, x3 uint64) bool {
		r0, r1, r2, r3 := Mod61Lanes4(x0, x1, x2, x3)
		return r0 == Mod61(x0) && r1 == Mod61(x1) && r2 == Mod61(x2) && r3 == Mod61(x3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestHash2LanesMatchScalar pins EvalLanes4/HashLanes4 bit-identical to
// the scalar Eval/Hash across many kernel draws, the exhaustive edge
// sweep, and randomized inputs — the law the 4-lane sketch batch loops
// depend on.
func TestHash2LanesMatchScalar(t *testing.T) {
	r := New(7)
	for round := 0; round < 64; round++ {
		h := NewHash2(r)
		laneQuads(func(x0, x1, x2, x3 uint64) {
			e0, e1, e2, e3 := h.EvalLanes4(Mod61(x0), Mod61(x1), Mod61(x2), Mod61(x3))
			if e0 != h.Eval(Mod61(x0)) || e1 != h.Eval(Mod61(x1)) ||
				e2 != h.Eval(Mod61(x2)) || e3 != h.Eval(Mod61(x3)) {
				t.Fatalf("round %d: EvalLanes4(%#x,%#x,%#x,%#x) diverges from scalar Eval",
					round, x0, x1, x2, x3)
			}
			h0, h1, h2, h3 := h.HashLanes4(x0, x1, x2, x3)
			if h0 != h.Hash(x0) || h1 != h.Hash(x1) || h2 != h.Hash(x2) || h3 != h.Hash(x3) {
				t.Fatalf("round %d: HashLanes4(%#x,%#x,%#x,%#x) diverges from scalar Hash",
					round, x0, x1, x2, x3)
			}
		})
	}
	h := NewHash2(New(11))
	f := func(x0, x1, x2, x3 uint64) bool {
		h0, h1, h2, h3 := h.HashLanes4(x0, x1, x2, x3)
		return h0 == h.Hash(x0) && h1 == h.Hash(x1) && h2 == h.Hash(x2) && h3 == h.Hash(x3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestHash4LanesMatchScalar is the degree-3 twin of
// TestHash2LanesMatchScalar.
func TestHash4LanesMatchScalar(t *testing.T) {
	r := New(9)
	for round := 0; round < 64; round++ {
		h := NewHash4(r)
		laneQuads(func(x0, x1, x2, x3 uint64) {
			e0, e1, e2, e3 := h.EvalLanes4(Mod61(x0), Mod61(x1), Mod61(x2), Mod61(x3))
			if e0 != h.Eval(Mod61(x0)) || e1 != h.Eval(Mod61(x1)) ||
				e2 != h.Eval(Mod61(x2)) || e3 != h.Eval(Mod61(x3)) {
				t.Fatalf("round %d: EvalLanes4(%#x,%#x,%#x,%#x) diverges from scalar Eval",
					round, x0, x1, x2, x3)
			}
		})
	}
}

func BenchmarkHash2Lanes4(b *testing.B) {
	h := NewHash2(New(1))
	var s0, s1, s2, s3 uint64
	for i := 0; i < b.N; i += 4 {
		r0, r1, r2, r3 := h.HashLanes4(uint64(i), uint64(i+1), uint64(i+2), uint64(i+3))
		s0 += r0
		s1 += r1
		s2 += r2
		s3 += r3
	}
	_ = s0 + s1 + s2 + s3
}

func BenchmarkHash4Lanes4(b *testing.B) {
	h := NewHash4(New(1))
	var s0, s1, s2, s3 uint64
	for i := 0; i < b.N; i += 4 {
		r0, r1, r2, r3 := h.EvalLanes4(Mod61Lanes4(uint64(i), uint64(i+1), uint64(i+2), uint64(i+3)))
		s0 += r0
		s1 += r1
		s2 += r2
		s3 += r3
	}
	_ = s0 + s1 + s2 + s3
}

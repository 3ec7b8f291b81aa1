package main

import "math"

// mix64 is the splitmix64 finalizer. Every random number the harness
// uses is mix64 of (seed, purpose, index[, attempt]), so any element of
// any input is computable on its own: generator goroutines build
// disjoint slices of one logical stream without sharing generator state,
// and two runs with one -seed produce byte-identical bodies.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives an independent seed for one purpose (a stream, an
// agent's sampling coins) from the run's -seed.
func subSeed(seed uint64, purpose string) uint64 {
	h := mix64(seed)
	for i := 0; i < len(purpose); i++ {
		h = mix64(h ^ uint64(purpose[i]))
	}
	return h | 1 // never 0: the daemon reads 0 as "pick one yourself"
}

// unit maps a hash to a float64 in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// seekableZipf draws ranks in [1, m] with P(rank) ∝ rank^-s, s > 1, by
// rejection-inversion (Hörmann & Derflinger 1996, the algorithm behind
// math/rand's Zipf). Unlike a stateful sampler it is seekable: Nth(i)
// depends only on (seed, i), each rejection round consuming the hash of
// (seed, i, round) instead of the next value of a shared sequence — the
// apophenia technique (SNIPPETS.md).
type seekableZipf struct {
	seed         uint64
	q            float64
	oneMinusQ    float64
	oneMinusQInv float64
	hxm          float64
	hx0MinusHxm  float64
	s            float64
}

func newSeekableZipf(m uint64, s float64, seed uint64) *seekableZipf {
	if s <= 1 || m < 1 {
		panic("benchmark: seekable Zipf needs s > 1 and m >= 1")
	}
	z := &seekableZipf{seed: seed, q: s, oneMinusQ: 1 - s, oneMinusQInv: 1 / (1 - s)}
	// Ranks are k+1 for k in [0, m-1] with weight (1+k)^-q.
	z.hxm = z.h(float64(m-1) + 0.5)
	z.hx0MinusHxm = z.h(0.5) - 1 - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(2)))
	return z
}

func (z *seekableZipf) h(x float64) float64 {
	return math.Exp(z.oneMinusQ*math.Log(1+x)) * z.oneMinusQInv
}

func (z *seekableZipf) hinv(x float64) float64 {
	return math.Exp(z.oneMinusQInv*math.Log(z.oneMinusQ*x)) - 1
}

// Nth returns the i-th rank of the sequence in expected O(1).
func (z *seekableZipf) Nth(i uint64) uint64 {
	base := mix64(z.seed ^ mix64(i))
	for round := uint64(0); ; round++ {
		ur := z.hxm + unit(mix64(base+round))*z.hx0MinusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s || ur >= z.h(k+0.5)-math.Exp(-math.Log(k+1)*z.q) {
			return uint64(k) + 1
		}
	}
}

// paretoNth is the i-th Pareto(xm=1, alpha) weight of the sequence
// seeded by seed: heavy-tailed flow sizes, seekable like the keys.
func paretoNth(seed, i uint64, alpha float64) float64 {
	u := 1 - unit(mix64(seed^mix64(i))) // (0, 1]
	return 1 / math.Pow(u, 1/alpha)
}

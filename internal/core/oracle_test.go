package core

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
)

// oracleInstance is a small original stream P, given by its frequency
// vector f, Bernoulli-sampled at the rational rate num/den.
type oracleInstance struct {
	f        []uint64
	num, den int64
}

// oracleInstances are small enough to enumerate every sampled frequency
// vector: Π (f_i + 1) outcomes each, about 15 000 in all.
var oracleInstances = []oracleInstance{
	{[]uint64{1}, 1, 2},
	{[]uint64{3}, 1, 3},
	{[]uint64{1, 1, 1, 1}, 1, 2},
	{[]uint64{2, 2, 2}, 1, 4},
	{[]uint64{10, 1, 1, 1, 1, 1}, 1, 2},
	{[]uint64{5, 4, 3, 2, 1}, 2, 3},
	{[]uint64{10, 10}, 1, 10},
	{[]uint64{6, 6, 6, 6}, 1, 5},
	{[]uint64{8, 4, 2, 1, 1}, 3, 10},
	{[]uint64{7, 5, 3, 3, 2, 1}, 1, 3},
	{[]uint64{10, 10, 10}, 7, 10},
}

// forEachOutcome calls visit with every sampled frequency vector g
// (0 ≤ g_i ≤ f_i) and its exact probability
// Π_i C(f_i, g_i)·p^g_i·(1−p)^(f_i−g_i): on the exact path the only
// randomness is the coin, and g_i ~ Bin(f_i, p) independently.
func forEachOutcome(f []uint64, p *big.Rat, visit func(g []uint64, prob *big.Rat)) {
	q := new(big.Rat).Sub(big.NewRat(1, 1), p)
	pmf := make([][]*big.Rat, len(f)) // pmf[i][g] = P(g_i = g)
	for i, fi := range f {
		pmf[i] = make([]*big.Rat, fi+1)
		for g := range pmf[i] {
			binom := new(big.Int).Binomial(int64(fi), int64(g))
			pr := new(big.Rat).SetInt(binom)
			pr.Mul(pr, ratPow(p, g))
			pmf[i][g] = pr.Mul(pr, ratPow(q, int(fi)-g))
		}
	}
	g := make([]uint64, len(f))
	var walk func(i int, prob *big.Rat)
	walk = func(i int, prob *big.Rat) {
		if i == len(f) {
			visit(g, prob)
			return
		}
		for gi := range pmf[i] {
			g[i] = uint64(gi)
			walk(i+1, new(big.Rat).Mul(prob, pmf[i][gi]))
		}
	}
	walk(0, big.NewRat(1, 1))
}

func ratPow(x *big.Rat, n int) *big.Rat {
	out := big.NewRat(1, 1)
	for range n {
		out.Mul(out, x)
	}
	return out
}

// stirling2 returns S(k, j), j = 0…k: x^k = Σ_j S(k, j)·x(x−1)…(x−j+1).
func stirling2(k int) []int64 {
	row := []int64{1}
	for n := 1; n <= k; n++ {
		next := make([]int64, n+1)
		for j := 1; j <= n; j++ {
			if j < n {
				next[j] = int64(j) * row[j]
			}
			next[j] += row[j-1]
		}
		row = next
	}
	return row
}

// unbiasedMoment is Lemma 1's estimator in closed form, in exact
// arithmetic: U_k(g) = Σ_i Σ_j S(k, j)·j!·C(g_i, j)/p^j. Its expectation
// over the coin is F_k(P) term by term, since E[C(g_i, j)] = C(f_i, j)·p^j,
// and since every S(k, j) ≥ 0 it is never below U_1 = F₁(L)/p.
func unbiasedMoment(g []uint64, k int, p *big.Rat) *big.Rat {
	s := stirling2(k)
	total := new(big.Rat)
	for j := 1; j <= k; j++ {
		var falling big.Int // Σ_i j!·C(g_i, j) = Σ_i g_i(g_i−1)…(g_i−j+1)
		for _, gi := range g {
			term := big.NewInt(1)
			for m := 0; m < j; m++ {
				term.Mul(term, big.NewInt(int64(gi)-int64(m)))
			}
			falling.Add(&falling, term)
		}
		t := new(big.Rat).SetInt(falling.Mul(&falling, big.NewInt(s[j])))
		total.Add(total, t.Quo(t, ratPow(p, j)))
	}
	return total
}

func ratFloat(x *big.Rat) float64 {
	f, _ := x.Float64()
	return f
}

// TestExactSamplingOracle enumerates every sampling outcome of small
// streams, feeds each outcome's sampled stream to the production
// estimators, and weighs every answer by its exact probability — no seed
// and no binomial slack. It holds:
//
//   - fk Exact (Algorithm 1 over the exact collision counter): each
//     outcome's φ̃_ℓ, ℓ = 1…4, is Lemma 1's closed form up to rounding,
//     whose exact expectation is F_ℓ(P). The clamp at φ̃₁ in Moments
//     never binds in exact arithmetic there, so it adds no bias; the
//     test logs the exact bias it would add and requires it ≥ 0.
//   - entropy (Theorem 5's plug-in H(g)): the exact bias E[H(g)] − H(f)
//     stays within the additive term AdditiveFloor(n).
//   - f0 (Algorithm 2 over KMV, exact below its capacity, so δ = 0): the
//     exact probability of missing Lemma 8's 4/√p band is at most
//     e^(−pF₀/8).
func TestExactSamplingOracle(t *testing.T) {
	const kMax = 4
	outcomes := 0
	for _, inst := range oracleInstances {
		name := fmt.Sprintf("f=%v/p=%d/%d", inst.f, inst.num, inst.den)
		p := big.NewRat(inst.num, inst.den)
		pf := float64(inst.num) / float64(inst.den)
		var n, f0 uint64
		for _, fi := range inst.f {
			n, f0 = n+fi, f0+1
		}
		var hf float64
		for _, fi := range inst.f {
			q := float64(fi) / float64(n)
			hf -= q * math.Log2(q)
		}
		var moment, mean, clampBias [kMax + 1]big.Rat
		var meanH, miss big.Rat
		atFloor := 0
		forEachOutcome(inst.f, p, func(g []uint64, prob *big.Rat) {
			outcomes++
			fk := NewFkEstimator(FkConfig{K: kMax, P: pf, Exact: true}, rng.New(1))
			ent := NewEntropyEstimator(EntropyConfig{P: pf}, nil)
			f0e := NewF0Estimator(F0Config{P: pf}, rng.New(1))
			var distinct float64
			for i, gi := range g {
				if gi > 0 {
					distinct++
				}
				for range gi {
					it := stream.Item(i + 1)
					fk.Observe(it)
					ent.Observe(it)
					f0e.Observe(it)
				}
			}
			phi := fk.Moments()
			u1 := unbiasedMoment(g, 1, p)
			for l := 1; l <= kMax; l++ {
				ul := unbiasedMoment(g, l, p)
				if want := ratFloat(ul); math.Abs(phi[l]-want) > 1e-12*math.Max(want, 1) {
					t.Fatalf("%s: g=%v: φ̃_%d = %v, Lemma 1's closed form %v", name, g, l, phi[l], want)
				}
				var x big.Rat
				moment[l].Add(&moment[l], x.Mul(ul, prob))
				mean[l].Add(&mean[l], x.Mul(new(big.Rat).SetFloat64(phi[l]), prob))
				if gap := new(big.Rat).Sub(u1, ul); gap.Sign() > 0 {
					clampBias[l].Add(&clampBias[l], gap.Mul(gap, prob))
				}
			}
			if phi[kMax] == phi[1] {
				atFloor++
			}
			meanH.Add(&meanH, new(big.Rat).Mul(new(big.Rat).SetFloat64(ent.Estimate()), prob))
			if f0e.SampledEstimate() != distinct {
				t.Fatalf("%s: g=%v: KMV below capacity answers %v, F₀(L) = %v", name, g, f0e.SampledEstimate(), distinct)
			}
			bound := f0e.ErrorBound()
			if est := f0e.Estimate(); est < float64(f0)/bound || est > float64(f0)*bound {
				miss.Add(&miss, prob)
			}
		})

		for l := 1; l <= kMax; l++ {
			fl := new(big.Rat) // F_ℓ(P) = Σ f_i^ℓ
			for _, fi := range inst.f {
				fl.Add(fl, ratPow(new(big.Rat).SetInt64(int64(fi)), l))
			}
			if moment[l].Cmp(fl) != 0 {
				t.Fatalf("%s: Lemma 1's closed form has E = %s, F_%d = %s", name, moment[l].RatString(), l, fl.RatString())
			}
			got, want := ratFloat(&mean[l]), ratFloat(fl)
			if math.Abs(got-want) > 1e-12*want {
				t.Errorf("%s: E[φ̃_%d] = %v, F_%d(P) = %v (bias %.3g)", name, l, got, l, want, got-want)
			}
			if clampBias[l].Sign() < 0 {
				t.Errorf("%s: the clamp's exact bias on φ̃_%d is %s < 0", name, l, clampBias[l].RatString())
			}
		}
		floor := NewEntropyEstimator(EntropyConfig{P: pf}, nil).AdditiveFloor(n)
		bias := ratFloat(&meanH) - hf
		if math.Abs(bias) > floor {
			t.Errorf("%s: entropy plug-in's exact bias %.4f exceeds Theorem 5's additive term %.4f", name, bias, floor)
		}
		missBound := math.Exp(-pf * float64(f0) / 8)
		if ratFloat(&miss) > missBound {
			t.Errorf("%s: f0 misses Lemma 8's band with probability %.4g > e^(−pF₀/8) = %.4g", name, ratFloat(&miss), missBound)
		}
		t.Logf("%s: clamp bias on φ̃_2..4 = %s, %s, %s (φ̃_4 at the floor in %d outcomes); entropy bias %+.4f (floor %.4f); f0 miss %.4g ≤ %.4g",
			name, clampBias[2].RatString(), clampBias[3].RatString(), clampBias[4].RatString(), atFloor,
			bias, floor, ratFloat(&miss), missBound)
	}
	if outcomes > 100000 {
		t.Fatalf("%d outcomes: the instances outgrew a tier-1 test", outcomes)
	}
}

package sample

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// makeWeighted draws n weighted items: zipfian keys over [1,m] with
// Pareto(1, alpha) weights — the skew profile of netflow-style streams.
func makeWeighted(n int, m int, alpha float64, seed uint64) stream.WSlice {
	r := rng.New(seed)
	z := rng.NewZipf(m, 1.1)
	out := make(stream.WSlice, n)
	for i := range out {
		out[i] = stream.WItem{
			Key:    stream.Item(z.Draw(r) + 1),
			Weight: rng.Pareto(r, 1, alpha),
		}
	}
	return out
}

// exactSubset sums the true weight of items whose key satisfies pred.
func exactSubset(s stream.WSlice, pred func(stream.Item) bool) float64 {
	var sum float64
	for _, it := range s {
		if pred(it.Key) {
			sum += it.Weight
		}
	}
	return sum
}

// sampleSet returns the retained sample as a key->adjusted-weight map.
func sampleSet(v *VarOpt) map[stream.Item]float64 {
	out := make(map[stream.Item]float64, v.SampleSize())
	for _, it := range v.large {
		out[it.Key] += it.Weight
	}
	for _, key := range v.small {
		out[key] += v.tau
	}
	return out
}

// TestVarOptExactBelowK pins the exact regime: while at most k items have
// been observed nothing is dropped, τ stays 0, and every subset sum is
// exact.
func TestVarOptExactBelowK(t *testing.T) {
	v := NewVarOpt(64, rng.New(1))
	s := makeWeighted(64, 1000, 1.5, 2)
	v.UpdateWeightedBatch(s)
	if v.Tau() != 0 {
		t.Fatalf("tau = %v before first drop", v.Tau())
	}
	if v.SampleSize() != len(s) {
		t.Fatalf("sample size %d, want %d", v.SampleSize(), len(s))
	}
	pred := func(it stream.Item) bool { return it%3 == 0 }
	got, want := v.SubsetSum(pred), exactSubset(s, pred)
	if math.Abs(got-want) > 1e-9*want+1e-12 {
		t.Fatalf("exact-regime subset sum %v, want %v", got, want)
	}
	if math.Abs(v.TotalWeight()-s.TotalWeight()) > 1e-9*s.TotalWeight() {
		t.Fatalf("total weight %v, want %v", v.TotalWeight(), s.TotalWeight())
	}
}

// TestVarOptInvariants pins the structural invariants the decoder
// re-validates: a full sample of exactly k items once τ > 0, every large
// weight strictly above τ, and Σ adjusted weights equal to the observed
// total (the defining VarOpt property) up to float rounding.
func TestVarOptInvariants(t *testing.T) {
	v := NewVarOpt(32, rng.New(7))
	s := makeWeighted(5000, 300, 1.2, 8)
	for i, it := range s {
		v.ObserveWeighted(it.Key, it.Weight)
		if i < 100 || i%997 == 0 {
			checkInvariants(t, v)
		}
	}
	checkInvariants(t, v)
	if v.SampleSize() != 32 {
		t.Fatalf("sample size %d after overflow, want k", v.SampleSize())
	}
	var adj float64
	for _, w := range sampleSet(v) {
		adj += w
	}
	if math.Abs(adj-v.TotalWeight()) > 1e-6*v.TotalWeight() {
		t.Fatalf("adjusted weights sum to %v, total weight %v", adj, v.TotalWeight())
	}
}

func checkInvariants(t *testing.T, v *VarOpt) {
	t.Helper()
	if v.Tau() == 0 {
		if len(v.small) != 0 {
			t.Fatalf("small items without a threshold")
		}
	} else if v.SampleSize() != v.k {
		t.Fatalf("tau=%v with sample size %d != k=%d", v.Tau(), v.SampleSize(), v.k)
	}
	for i, e := range v.large {
		if e.Weight <= v.Tau() {
			t.Fatalf("large[%d] weight %v <= tau %v", i, e.Weight, v.Tau())
		}
		if i > 0 && v.large[(i-1)/2].Weight > e.Weight {
			t.Fatalf("heap violation at %d", i)
		}
	}
}

// TestVarOptUnbiased checks the Horvitz–Thompson estimator: over many
// independent reservoirs the mean subset-sum estimate converges to the
// exact subset weight.
func TestVarOptUnbiased(t *testing.T) {
	s := makeWeighted(4000, 500, 1.3, 11)
	pred := func(it stream.Item) bool { return it <= 50 }
	exact := exactSubset(s, pred)
	const trials = 300
	var sum, sumSq float64
	for trial := 0; trial < trials; trial++ {
		v := NewVarOpt(48, rng.New(1000+uint64(trial)))
		v.UpdateWeightedBatch(s)
		est := v.SubsetSum(pred)
		sum += est
		sumSq += est * est
	}
	mean := sum / trials
	std := math.Sqrt(sumSq/trials - mean*mean)
	tol := 4 * std / math.Sqrt(trials)
	if math.Abs(mean-exact) > tol+1e-9*exact {
		t.Fatalf("mean estimate %v, exact %v, tolerance %v (std %v)", mean, exact, tol, std)
	}
}

// TestVarOptMergeMatchesSequential is the merged-vs-sequential battery:
// for 1..8 shards over zipf-keyed streams with Pareto weights (two tail
// indices), the merged estimator must stay unbiased and its sampling
// error must stay within a small constant of the sequential reservoir's
// — the practical form of the CDKLT merge-equivalence guarantee (the
// merged sample is a VarOpt-quality sample of the union).
func TestVarOptMergeMatchesSequential(t *testing.T) {
	for _, alpha := range []float64{1.2, 2.5} {
		s := makeWeighted(3000, 400, alpha, 21)
		pred := func(it stream.Item) bool { return it <= 40 }
		exact := exactSubset(s, pred)
		const trials = 120
		const k = 48
		seqErr := rmse(t, trials, func(trial int) float64 {
			v := NewVarOpt(k, rng.New(5000+uint64(trial)))
			v.UpdateWeightedBatch(s)
			return v.SubsetSum(pred) - exact
		})
		for shards := 1; shards <= 8; shards++ {
			shards := shards
			var sum float64
			mergedErr := rmse(t, trials, func(trial int) float64 {
				base := rng.New(9000 + uint64(trial))
				parts := make([]*VarOpt, shards)
				for i := range parts {
					parts[i] = NewVarOpt(k, base.Split())
				}
				for i, it := range s {
					parts[i%shards].ObserveWeighted(it.Key, it.Weight)
				}
				acc := parts[0]
				for _, p := range parts[1:] {
					if err := acc.Merge(p); err != nil {
						t.Fatal(err)
					}
				}
				if acc.n != uint64(len(s)) {
					t.Fatalf("merged n = %d, want %d", acc.n, len(s))
				}
				est := acc.SubsetSum(pred)
				sum += est
				return est - exact
			})
			mean := sum / trials
			biasTol := 4*mergedErr/math.Sqrt(trials) + 1e-9*exact
			if math.Abs(mean-exact) > biasTol {
				t.Fatalf("alpha=%v shards=%d: merged mean %v, exact %v (tol %v)",
					alpha, shards, mean, exact, biasTol)
			}
			// Merging s shard samples discards information relative to one
			// sequential pass, but the error must stay the same order; 2.5x
			// in RMSE (6x in variance) is far above what CDKLT merging
			// costs and far below what a broken merge produces.
			if mergedErr > 2.5*seqErr+1e-9*exact {
				t.Fatalf("alpha=%v shards=%d: merged rmse %v vs sequential %v",
					alpha, shards, mergedErr, seqErr)
			}
		}
	}
}

func rmse(t *testing.T, trials int, f func(trial int) float64) float64 {
	t.Helper()
	var sumSq float64
	for i := 0; i < trials; i++ {
		d := f(i)
		sumSq += d * d
	}
	return math.Sqrt(sumSq / float64(trials))
}

// TestVarOptMergeExactBelowK checks that merging reservoirs whose union
// fits in k slots is lossless.
func TestVarOptMergeExactBelowK(t *testing.T) {
	a := NewVarOpt(64, rng.New(1))
	b := NewVarOpt(64, rng.New(2))
	sa := makeWeighted(20, 100, 1.5, 3)
	sb := makeWeighted(30, 100, 1.5, 4)
	a.UpdateWeightedBatch(sa)
	b.UpdateWeightedBatch(sb)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Tau() != 0 || a.SampleSize() != 50 {
		t.Fatalf("lossless merge dropped items: tau=%v size=%d", a.Tau(), a.SampleSize())
	}
	pred := func(stream.Item) bool { return true }
	want := sa.TotalWeight() + sb.TotalWeight()
	if got := a.SubsetSum(pred); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("merged subset sum %v, want %v", got, want)
	}
}

// TestVarOptMergeRejectsMismatchedK pins the merge-compatibility check.
func TestVarOptMergeRejectsMismatchedK(t *testing.T) {
	a := NewVarOpt(8, rng.New(1))
	b := NewVarOpt(16, rng.New(1))
	if err := a.Merge(b); err == nil {
		t.Fatal("merge across capacities succeeded")
	}
}

// TestVarOptObserveIsWeightOne pins the degenerate projection: Observe
// must be ObserveWeighted at weight 1, bit for bit.
func TestVarOptObserveIsWeightOne(t *testing.T) {
	a := NewVarOpt(16, rng.New(3))
	b := NewVarOpt(16, rng.New(3))
	s := makeStream(500, 100, 4)
	for _, it := range s {
		a.Observe(it)
		b.ObserveWeighted(it, 1)
	}
	ab, _ := a.MarshalBinary()
	bb, _ := b.MarshalBinary()
	if !bytes.Equal(ab, bb) {
		t.Fatal("Observe and ObserveWeighted(·, 1) diverge")
	}
}

// TestVarOptIgnoresBadWeights pins that non-positive and non-finite
// weights carry no mass.
func TestVarOptIgnoresBadWeights(t *testing.T) {
	v := NewVarOpt(8, rng.New(1))
	for _, w := range []float64{0, -1, math.Inf(1), math.Inf(-1), math.NaN()} {
		v.ObserveWeighted(7, w)
	}
	if v.n != 0 || v.TotalWeight() != 0 || v.SampleSize() != 0 {
		t.Fatalf("bad weights observed: n=%d total=%v size=%d", v.n, v.TotalWeight(), v.SampleSize())
	}
}

// TestVarOptMarshalRoundTrip checks that decode reconstructs the exact
// state: re-marshal is byte-identical, and the decoded reservoir stays in
// lockstep with the original through further weighted observations (the
// serialized generator state continues the same coin stream).
func TestVarOptMarshalRoundTrip(t *testing.T) {
	v := NewVarOpt(24, rng.New(9))
	s := makeWeighted(2000, 200, 1.4, 10)
	v.UpdateWeightedBatch(s)
	data, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.Decode(data, DecodeVarOpt)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-marshal is not byte-identical")
	}
	more := makeWeighted(500, 200, 1.4, 12)
	v.UpdateWeightedBatch(more)
	got.UpdateWeightedBatch(more)
	va, _ := v.MarshalBinary()
	ga, _ := got.MarshalBinary()
	if !bytes.Equal(va, ga) {
		t.Fatal("decoded reservoir diverges from its source")
	}
}

// TestVarOptDecodeTruncation checks that every strict prefix of a valid
// payload is rejected.
func TestVarOptDecodeTruncation(t *testing.T) {
	v := NewVarOpt(8, rng.New(5))
	v.UpdateWeightedBatch(makeWeighted(100, 50, 1.5, 6))
	data, _ := v.MarshalBinary()
	for n := 0; n < len(data); n++ {
		if _, err := wire.Decode(data[:n], DecodeVarOpt); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	if _, err := wire.Decode(append(append([]byte{}, data...), 0), DecodeVarOpt); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestVarOptDecodeRejectsCorrupt is the invalid-payload table: each case
// mutates one field of a valid payload into a state MarshalBinary can
// never produce.
func TestVarOptDecodeRejectsCorrupt(t *testing.T) {
	mk := func(mutate func(v *VarOpt)) []byte {
		v := NewVarOpt(8, rng.New(5))
		v.UpdateWeightedBatch(makeWeighted(100, 50, 1.5, 6))
		// Two far-above-threshold items guarantee the payload carries both
		// large and small entries, so every table row has a field to hit.
		v.ObserveWeighted(901, v.Tau()*100)
		v.ObserveWeighted(902, v.Tau()*50)
		if len(v.large) == 0 || len(v.small) == 0 {
			t.Fatal("corpus reservoir lost a section")
		}
		if mutate != nil {
			mutate(v)
		}
		data, err := v.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if _, err := wire.Decode(mk(nil), DecodeVarOpt); err != nil {
		t.Fatalf("baseline payload rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(v *VarOpt)
	}{
		{"zero k", func(v *VarOpt) { v.k = 0 }},
		{"huge k", func(v *VarOpt) { v.k = maxVarOptK + 1 }},
		{"negative total", func(v *VarOpt) { v.totalW = -1 }},
		{"nan total", func(v *VarOpt) { v.totalW = math.NaN() }},
		{"inf tau", func(v *VarOpt) { v.tau = math.Inf(1) }},
		{"negative tau", func(v *VarOpt) { v.tau = -0.5 }},
		{"zero rng state", func(v *VarOpt) { v.r = &rng.Xoshiro256{} }},
		{"zero large key", func(v *VarOpt) { v.large[0].Key = 0 }},
		{"large weight below tau", func(v *VarOpt) { v.large[0].Weight = v.tau / 2 }},
		{"nan large weight", func(v *VarOpt) { v.large[0].Weight = math.NaN() }},
		{"heap violation", func(v *VarOpt) {
			sort.Slice(v.large, func(i, j int) bool { return v.large[i].Weight > v.large[j].Weight })
		}},
		{"zero small key", func(v *VarOpt) { v.small[0] = 0 }},
		{"n below sample", func(v *VarOpt) { v.n = 3 }},
		{"tau without full sample", func(v *VarOpt) { v.small = v.small[:len(v.small)-1] }},
		{"small items without tau", func(v *VarOpt) { v.tau = 0 }},
	}
	for _, tc := range cases {
		if _, err := wire.Decode(mk(tc.mutate), DecodeVarOpt); err == nil {
			t.Errorf("%s: corrupt payload decoded", tc.name)
		}
	}
}

// FuzzVarOptDecode drives arbitrary bytes through the decoder: it must
// never panic, and anything it accepts must re-marshal byte-identically
// and keep accepting observations.
func FuzzVarOptDecode(f *testing.F) {
	v := NewVarOpt(8, rng.New(5))
	v.UpdateWeightedBatch(makeWeighted(100, 50, 1.5, 6))
	full, _ := v.MarshalBinary()
	f.Add(full)
	small := NewVarOpt(4, rng.New(1))
	small.ObserveWeighted(3, 2.5)
	partial, _ := small.MarshalBinary()
	f.Add(partial)
	f.Add([]byte{TagVarOpt, 2})
	// The v3 failure modes a VarOpt payload can carry (it has no varints,
	// runs or tables): the rows internal/sketch's TestHostilePayloads runs
	// for this kind, forged by hand because its layout walker lives in
	// that package's tests.
	v2 := append([]byte(nil), full...)
	v2[1] = 2
	f.Add(v2)
	const largeCount = 2 + 4 + 8 + 8 + 8 + 4*8 // tag, version, k, n, W, tau, generator
	huge := append([]byte(nil), full[:largeCount+64]...)
	binary.LittleEndian.PutUint32(huge[largeCount:], 1<<28)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := wire.Decode(data, DecodeVarOpt)
		if err != nil {
			return
		}
		out, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted payload failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("accepted payload does not round-trip byte-identically")
		}
		got.ObserveWeighted(1, 1)
		got.SubsetSum(func(stream.Item) bool { return true })
	})
}

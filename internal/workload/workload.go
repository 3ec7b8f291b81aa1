// Package workload generates the synthetic input streams the experiments
// run on: Zipf and uniform frequency profiles, planted heavy-hitter
// streams, the adversarial instances behind the paper's lower bounds
// (Theorem 4's Charikar-style F₀ instance, Lemma 9's entropy scenarios),
// and a NetFlow-like packet trace.
//
// Real sampled-NetFlow traces are proprietary; the generator substitutes
// them. The estimators' guarantees depend only on the frequency vector
// and the Bernoulli sampling process, both of which these generators
// control exactly.
package workload

import (
	"fmt"

	"substream/internal/rng"
	"substream/internal/stream"
)

// Workload couples a named, replayable stream with the parameters that
// generated it, so experiment tables can label rows.
type Workload struct {
	// Name identifies the workload in experiment output.
	Name string
	// Stream is the generated original stream P (replayable).
	Stream stream.Stream
	// Universe is the nominal universe size m.
	Universe uint64
}

// Zipf returns a length-n stream over [1, m] with Zipf(s) frequencies.
// The stream is materialized (replay returns identical items).
func Zipf(n, m int, s float64, seed uint64) Workload {
	r := rng.New(seed)
	z := rng.NewZipf(m, s)
	out := make(stream.Slice, n)
	for i := range out {
		out[i] = stream.Item(z.Draw(r))
	}
	return Workload{
		Name:     fmt.Sprintf("zipf(s=%.2f,n=%d,m=%d)", s, n, m),
		Stream:   out,
		Universe: uint64(m),
	}
}

// Uniform returns a length-n stream drawn uniformly from [1, m].
func Uniform(n, m int, seed uint64) Workload {
	r := rng.New(seed)
	out := make(stream.Slice, n)
	for i := range out {
		out[i] = stream.Item(r.Uint64n(uint64(m)) + 1)
	}
	return Workload{
		Name:     fmt.Sprintf("uniform(n=%d,m=%d)", n, m),
		Stream:   out,
		Universe: uint64(m),
	}
}

// AllDistinct returns the stream 1, 2, …, n — every item exactly once.
// It maximizes F₀ and entropy and has zero collisions.
func AllDistinct(n int) Workload {
	out := make(stream.Slice, n)
	for i := range out {
		out[i] = stream.Item(i + 1)
	}
	return Workload{
		Name:     fmt.Sprintf("distinct(n=%d)", n),
		Stream:   out,
		Universe: uint64(n),
	}
}

// ConstantFreq returns a stream of d distinct items, each appearing
// exactly `repeat` times, shuffled.
func ConstantFreq(d, repeat int, seed uint64) Workload {
	out := make(stream.Slice, 0, d*repeat)
	for i := 1; i <= d; i++ {
		for j := 0; j < repeat; j++ {
			out = append(out, stream.Item(i))
		}
	}
	r := rng.New(seed)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return Workload{
		Name:     fmt.Sprintf("constfreq(d=%d,f=%d)", d, repeat),
		Stream:   out,
		Universe: uint64(d),
	}
}

// PlantedHH returns a stream with `heavy` planted items of frequency
// heavyFreq each (ids 1…heavy) over a uniform light background filling
// the stream to length n, shuffled. It is the Theorem 6/7 evaluation
// input: ground-truth heavy hitters are known by construction.
func PlantedHH(n, heavy, heavyFreq, lightUniverse int, seed uint64) Workload {
	r := rng.New(seed)
	out := make(stream.Slice, 0, n)
	for h := 1; h <= heavy; h++ {
		for j := 0; j < heavyFreq; j++ {
			out = append(out, stream.Item(h))
		}
	}
	for len(out) < n {
		out = append(out, stream.Item(heavy+1+r.Intn(lightUniverse)))
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return Workload{
		Name:     fmt.Sprintf("planted(n=%d,hh=%d×%d)", n, heavy, heavyFreq),
		Stream:   out,
		Universe: uint64(heavy + lightUniverse),
	}
}

// F0Adversarial returns the Charikar-style hard instance behind
// Theorem 4: with probability 1/2 the stream is all-distinct (F₀ = n),
// otherwise it consists of d ≪ n values each repeated n/d times (F₀ = d).
// A sampler observing o(n) elements cannot tell the two apart well, so
// any estimator errs by Ω(√(n/d)) on one of them. Duplicated reports
// which case was drawn, so experiments can plot both branches.
func F0Adversarial(n, d int, seed uint64) (w Workload, duplicated bool) {
	r := rng.New(seed)
	duplicated = r.Bool()
	if !duplicated {
		w = AllDistinct(n)
		w.Name = fmt.Sprintf("f0adv-distinct(n=%d)", n)
		return w, false
	}
	w = ConstantFreq(d, n/d, r.Uint64())
	w.Name = fmt.Sprintf("f0adv-dup(n=%d,d=%d)", n, d)
	return w, true
}

// EntropyScenario1 is Lemma 9's first instance: item 1 appears n−k times
// and k = ⌈1/(10p)⌉ singleton items fill the rest. H(f) = Θ(k·log n/n) is
// positive, but with probability ≥ (1−p)^k ≈ 0.9 the sampled stream
// contains none of the singletons and every sampled-entropy estimate
// collapses to 0.
func EntropyScenario1(n int, p float64) Workload {
	k := int(1/(10*p)) + 1
	if k >= n {
		k = n / 2
	}
	out := make(stream.Slice, 0, n)
	for i := 0; i < n-k; i++ {
		out = append(out, 1)
	}
	for i := 0; i < k; i++ {
		out = append(out, stream.Item(i+2))
	}
	return Workload{
		Name:     fmt.Sprintf("entropy1(n=%d,k=%d)", n, k),
		Stream:   out,
		Universe: uint64(k + 1),
	}
}

// EntropyScenario2 is Lemma 9's second instance: all m items appear once
// (H(f) = lg m) while H(g) concentrates at lg(pm), a fixed additive gap
// of |lg p| ≈ |lg 2p| that no multiplicative estimator can close.
func EntropyScenario2(m int) Workload {
	w := AllDistinct(m)
	w.Name = fmt.Sprintf("entropy2(m=%d)", m)
	return w
}

// Flow is one synthetic NetFlow-style flow: an id and a packet count.
type Flow struct {
	ID      stream.Item
	Packets int
}

// NetFlow returns a packet stream over `flows` flows whose popularity is
// Zipf(skew) and whose sizes are Pareto(shape) with minimum size minPkts,
// interleaved by random arrival order, truncated/padded to n packets. It
// also returns the generated flow table for ground-truth checks.
func NetFlow(n, flows int, skew, shape float64, minPkts int, seed uint64) (Workload, []Flow) {
	r := rng.New(seed)
	z := rng.NewZipf(flows, skew)

	// Draw flow sizes: popularity decides how many "slots" a flow id
	// receives; Pareto scales burstiness of per-flow packet counts.
	table := make([]Flow, flows)
	for i := range table {
		pkts := int(rng.Pareto(r, float64(minPkts), shape))
		table[i] = Flow{ID: stream.Item(i + 1), Packets: pkts}
	}

	out := make(stream.Slice, 0, n)
	for len(out) < n {
		id := z.Draw(r)
		f := &table[id-1]
		// Emit a burst of up to 16 packets of this flow, matching the
		// clustered arrivals real traces show.
		burst := 1 + r.Intn(16)
		if burst > f.Packets {
			burst = f.Packets
		}
		if burst == 0 {
			burst = 1
		}
		for j := 0; j < burst && len(out) < n; j++ {
			out = append(out, f.ID)
		}
	}
	w := Workload{
		Name:     fmt.Sprintf("netflow(n=%d,flows=%d,skew=%.2f)", n, flows, skew),
		Stream:   out,
		Universe: uint64(flows),
	}
	return w, table
}

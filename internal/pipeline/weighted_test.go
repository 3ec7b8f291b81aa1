package pipeline

import (
	"math"
	"sync"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
)

// wReplica consumes weighted items natively, recording totals.
type wReplica struct {
	n       uint64
	weight  float64
	batches int
}

func (w *wReplica) ObserveWeighted(_ stream.Item, weight float64) {
	w.n++
	w.weight += weight
}

func (w *wReplica) UpdateWeightedBatch(items []stream.WItem) {
	w.batches++
	for _, it := range items {
		w.ObserveWeighted(it.Key, it.Weight)
	}
}

func (w *wReplica) Observe(stream.Item)         { w.n++; w.weight++ }
func (w *wReplica) UpdateBatch(s []stream.Item) { w.n += uint64(len(s)); w.weight += float64(len(s)) }

// wrapped hides a weighted replica behind an Unwrap chain, the shape the
// estimator registry's adapter gives the pipeline.
type wrapped struct{ inner *wReplica }

func (w wrapped) Observe(it stream.Item)          { w.inner.Observe(it) }
func (w wrapped) UpdateBatch(items []stream.Item) { w.inner.UpdateBatch(items) }
func (w wrapped) Unwrap() any                     { return w.inner }

func makeWeightedStream(n int, seed uint64) stream.WSlice {
	r := rng.New(seed)
	out := make(stream.WSlice, n)
	for i := range out {
		out[i] = stream.WItem{
			Key:    stream.Item(r.Uint64n(500) + 1),
			Weight: rng.Pareto(r, 1, 1.5),
		}
	}
	return out
}

// TestWeightedFeedsDeliverAllWeight drives every weighted feed variant
// and checks the replicas saw all items at their true weights.
func TestWeightedFeedsDeliverAllWeight(t *testing.T) {
	s := makeWeightedStream(10_000, 1)
	want := s.TotalWeight()
	feeds := map[string]func(p *Pipeline[*wReplica]){
		"item": func(p *Pipeline[*wReplica]) {
			for _, it := range s {
				p.FeedWeightedCopy(stream.WSlice{it})
			}
		},
		"slice": func(p *Pipeline[*wReplica]) { p.FeedWeightedSlice(s) },
		"copy": func(p *Pipeline[*wReplica]) {
			for i := 0; i < len(s); i += 700 {
				end := i + 700
				if end > len(s) {
					end = len(s)
				}
				p.FeedWeightedCopy(s[i:end])
			}
		},
		"owned": func(p *Pipeline[*wReplica]) {
			var wg sync.WaitGroup
			for i := 0; i < len(s); i += 700 {
				end := i + 700
				if end > len(s) {
					end = len(s)
				}
				chunk := make(stream.WSlice, end-i)
				copy(chunk, s[i:end])
				wg.Add(1)
				p.FeedWeightedOwned(chunk, wg.Done)
			}
			defer wg.Wait()
		},
	}
	for name, feed := range feeds {
		p := New(Config{Shards: 4, BatchSize: 128}, func(int) *wReplica { return &wReplica{} })
		feed(p)
		shards := p.Close()
		var n uint64
		var weight float64
		for _, r := range shards {
			n += r.n
			weight += r.weight
		}
		if n != uint64(len(s)) {
			t.Errorf("%s: delivered %d items, want %d", name, n, len(s))
		}
		if math.Abs(weight-want) > 1e-6*want {
			t.Errorf("%s: delivered weight %v, want %v", name, weight, want)
		}
		if p.Fed() != uint64(len(s)) {
			t.Errorf("%s: Fed=%d, want %d", name, p.Fed(), len(s))
		}
		if p.Kept() != uint64(len(s)) {
			t.Errorf("%s: Kept=%d, want %d", name, p.Kept(), len(s))
		}
	}
}

// TestWeightedUnwrapProbe checks the worker finds a replica's weighted
// path through an Unwrap chain — the adapter shape registry-built
// estimators arrive in.
func TestWeightedUnwrapProbe(t *testing.T) {
	inners := make([]*wReplica, 0, 2)
	p := New(Config{Shards: 2, BatchSize: 32}, func(int) wrapped {
		r := &wReplica{}
		inners = append(inners, r)
		return wrapped{inner: r}
	})
	s := makeWeightedStream(1_000, 2)
	p.FeedWeightedSlice(s)
	p.Close()
	var weight float64
	var batches int
	for _, r := range inners {
		weight += r.weight
		batches += r.batches
	}
	if want := s.TotalWeight(); math.Abs(weight-want) > 1e-6*want {
		t.Fatalf("unwrapped replicas saw weight %v, want %v", weight, want)
	}
	if batches == 0 {
		t.Fatal("weighted batches went through the stripped fallback, not UpdateWeightedBatch")
	}
}

// TestWeightedFallbackStripsWeights checks the degenerate projection:
// replicas without a weighted path see each weighted item once as its
// bare key.
func TestWeightedFallbackStripsWeights(t *testing.T) {
	p := New(Config{Shards: 2, BatchSize: 64}, func(int) *batchReplica { return &batchReplica{} })
	s := makeWeightedStream(2_000, 3)
	p.FeedWeightedSlice(s)
	shards := p.Close()
	var n, sum uint64
	for _, r := range shards {
		n += r.n
		sum += r.sum
	}
	var wantSum uint64
	for _, it := range s {
		wantSum += uint64(it.Key)
	}
	if n != uint64(len(s)) || sum != wantSum {
		t.Fatalf("projected feed saw n=%d sum=%d, want n=%d sum=%d", n, sum, len(s), wantSum)
	}
}

// TestWeightedInterleavingPreservesOrderAndCounts mixes the two lanes:
// lane switches flush the other lane's partial batch, so totals and
// per-shard views stay exact.
func TestWeightedInterleavingPreservesOrderAndCounts(t *testing.T) {
	p := New(Config{Shards: 3, BatchSize: 50}, func(int) *wReplica { return &wReplica{} })
	const rounds = 1_000
	var wantWeight float64
	var wantItems uint64
	for i := 0; i < rounds; i++ {
		p.FeedCopy(stream.Slice{stream.Item(i%90 + 1)})
		wantWeight++
		wantItems++
		if i%3 == 0 {
			p.FeedWeightedCopy(stream.WSlice{{Key: stream.Item(i%90 + 1), Weight: 2.5}})
			wantWeight += 2.5
			wantItems++
		}
	}
	p.Sync()
	if got := p.Kept(); got != wantItems {
		t.Fatalf("Kept=%d after Sync, want %d", got, wantItems)
	}
	shards := p.Close()
	var weight float64
	for _, r := range shards {
		weight += r.weight
	}
	if math.Abs(weight-wantWeight) > 1e-9*wantWeight {
		t.Fatalf("replicas saw weight %v, want %v", weight, wantWeight)
	}
	st := p.Stats()
	if st.Fed != wantItems || st.Kept != wantItems {
		t.Fatalf("Stats snapshot %+v inconsistent (want %d items)", st, wantItems)
	}
}

// TestWeightedSamplingSharesCoinStream pins the bit-identity contract
// around the sampler: a weighted pipeline at SampleP samples ITEMS (not
// weight-proportionally), and an unweighted-only pipeline consumes coins
// exactly as it did before the weighted lane existed — checked by
// comparing against a hand-run bernoulliSampler on the same seed
// derivation.
func TestWeightedSamplingSharesCoinStream(t *testing.T) {
	const n = 20_000
	const sampleP = 0.25
	s := makeWeightedStream(n, 4)
	p := New(Config{Shards: 1, BatchSize: 256, SampleP: sampleP, Seed: 7},
		func(int) *wReplica { return &wReplica{} })
	p.FeedWeightedSlice(s)
	shards := p.Close()

	// Reproduce the worker's sampler: master rng.New(Seed), one Split per
	// shard.
	var sampler bernoulliSampler
	sampler.init(sampleP, rng.New(7).Split())
	var wantN uint64
	var wantW float64
	kept := filter(&sampler, nil, s)
	for _, it := range kept {
		wantN++
		wantW += it.Weight
	}
	if shards[0].n != wantN || math.Abs(shards[0].weight-wantW) > 1e-9*wantW {
		t.Fatalf("sampled weighted shard saw (%d, %v), want (%d, %v)",
			shards[0].n, shards[0].weight, wantN, wantW)
	}
	if float64(wantN) < 0.8*sampleP*n || float64(wantN) > 1.2*sampleP*n {
		t.Fatalf("sampler kept %d of %d at p=%v — filter broken", wantN, n, sampleP)
	}
}

package levelset

import (
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/workload"
)

func splitStream(n int, seed uint64, shards int) []stream.Slice {
	s := stream.Collect(workload.Zipf(n, 1500, 1.2, seed).Stream)
	parts := make([]stream.Slice, shards)
	for i, it := range s {
		parts[i%shards] = append(parts[i%shards], it)
	}
	return parts
}

func TestExactCounterMerge(t *testing.T) {
	parts := splitStream(40_000, 3, 4)
	single := NewExactCounter()
	merged := NewExactCounter()
	shards := make([]*ExactCounter, len(parts))
	for i, part := range parts {
		shards[i] = NewExactCounter()
		shards[i].UpdateBatch(part)
		for _, it := range part {
			single.Observe(it)
		}
	}
	for _, sh := range shards {
		if err := merged.MergeCounter(sh); err != nil {
			t.Fatal(err)
		}
	}
	for l := 2; l <= 4; l++ {
		if s, m := single.Sum(binom(l)), merged.Sum(binom(l)); s != m {
			t.Fatalf("C_%d: single %.0f vs merged %.0f", l, s, m)
		}
	}
	if single.counts.N() != merged.counts.N() {
		t.Fatalf("N %d vs %d", single.counts.N(), merged.counts.N())
	}
}

// TestEstimatorMergeExactRegime: with budget above the distinct count no
// eviction ever happens (heavy part exact, light thresholds zero), so the
// sharded-then-merged estimator must agree with the single one exactly.
func TestEstimatorMergeExactRegime(t *testing.T) {
	parts := splitStream(40_000, 5, 4)
	mk := func() *Estimator {
		return New(Config{EpsPrime: 0.05, Budget: 4096}, rng.New(11))
	}
	single := mk()
	merged := mk()
	rest := make([]*Estimator, 0, len(parts)-1)
	for i, part := range parts {
		if i == 0 {
			merged.UpdateBatch(part)
		} else {
			sh := mk()
			sh.UpdateBatch(part)
			rest = append(rest, sh)
		}
		for _, it := range part {
			single.Observe(it)
		}
	}
	for _, sh := range rest {
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	for l := 2; l <= 3; l++ {
		s, m := single.Sum(binom(l)), merged.Sum(binom(l))
		if diff := math.Abs(s - m); diff > 1e-6*math.Max(s, 1) {
			t.Fatalf("C_%d: single %.6g vs merged %.6g", l, s, m)
		}
	}
	for _, T := range merged.ThresholdLevels() {
		if T != 0 {
			t.Fatalf("unexpected threshold raise in exact regime: %v", merged.ThresholdLevels())
		}
	}
}

// TestEstimatorMergeTightBudget: under eviction pressure the merge is
// approximate; it must stay a sane estimate of the true collision count.
func TestEstimatorMergeTightBudget(t *testing.T) {
	parts := splitStream(60_000, 9, 4)
	exact := NewExactCounter()
	mk := func() *Estimator {
		return New(Config{EpsPrime: 0.05, Budget: 256}, rng.New(13))
	}
	merged := mk()
	for i, part := range parts {
		exact.UpdateBatch(part)
		if i == 0 {
			merged.UpdateBatch(part)
			continue
		}
		sh := mk()
		sh.UpdateBatch(part)
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	truth := exact.Sum(binom(2))
	got := merged.Sum(binom(2))
	if rel := math.Abs(got-truth) / truth; rel > 0.5 {
		t.Fatalf("tight-budget merged C_2 %.4g strays %.0f%% from exact %.4g", got, 100*rel, truth)
	}
}

func TestEstimatorMergeRejectsMismatch(t *testing.T) {
	a := New(Config{EpsPrime: 0.05, Budget: 128}, rng.New(1))
	if err := a.Merge(New(Config{EpsPrime: 0.06, Budget: 128}, rng.New(1))); err == nil {
		t.Fatal("expected eps mismatch to fail")
	}
	if err := a.Merge(New(Config{EpsPrime: 0.05, Budget: 128}, rng.New(2))); err == nil {
		t.Fatal("expected seed mismatch to fail")
	}
	if err := a.MergeCounter(NewExactCounter()); err == nil {
		t.Fatal("expected cross-type merge to fail")
	}
}

package experiments

import (
	"bytes"
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

func feedIW(e *iwEstimator, s stream.Slice) {
	for _, it := range s {
		e.Observe(it)
	}
}

func TestIWCollisionsOnSkewedStream(t *testing.T) {
	// Skewed stream: C2 dominated by frequent items, which level 0's
	// CountSketch recovers directly. The estimate should land within a
	// modest factor of truth.
	s := zipfStream(200000, 20000, 1.3, 1)
	exact := stream.NewFreq(s).Collisions(2)
	e := newIW(0.05, 2048, 5, rng.New(2))
	feedIW(e, s)
	got := e.EstimateCollisions(2)
	if got < exact/3 || got > exact*3 {
		t.Fatalf("IW C2 = %v, exact %v", got, exact)
	}
}

func TestIWHeadRecoveredAccurately(t *testing.T) {
	// Heavy planted items carry nearly all collisions; the IW estimate
	// of C3 should track them within band-discretization error.
	var s stream.Slice
	for i := 0; i < 5000; i++ {
		s = append(s, 1)
	}
	for i := 0; i < 3000; i++ {
		s = append(s, 2)
	}
	for i := 1; i <= 20000; i++ {
		s = append(s, stream.Item(i+10))
	}
	rng.New(3).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	exact := stream.NewFreq(s).Collisions(3)
	e := newIW(0.05, 1024, 5, rng.New(4))
	feedIW(e, s)
	got := e.EstimateCollisions(3)
	if rel := math.Abs(got-exact) / exact; rel > 0.3 {
		t.Fatalf("IW C3 = %v, exact %v (rel %v)", got, exact, rel)
	}
}

func TestIWNoGrossOverestimateOnDistinct(t *testing.T) {
	// All-singleton stream: C2 = 0. Candidates all have frequency 1,
	// below every level's recovery threshold once enough mass arrives,
	// and C(rep, 2) clamps for rep ≤ 1 — the estimate must stay ≈ 0
	// relative to the trivial bound n²/2.
	var s stream.Slice
	for i := 1; i <= 50000; i++ {
		s = append(s, stream.Item(i))
	}
	for seed := uint64(1); seed <= 5; seed++ {
		e := newIW(0.1, 512, 5, rng.New(seed))
		feedIW(e, s)
		if got := e.EstimateCollisions(2); got > float64(len(s)) {
			t.Fatalf("seed %d: C2 estimate %v on collision-free stream", seed, got)
		}
	}
}

func TestIWBandsSortedAndPositive(t *testing.T) {
	s := zipfStream(50000, 500, 1.1, 5)
	e := newIW(0.1, 1024, 5, rng.New(6))
	feedIW(e, s)
	bands := e.Bands()
	if len(bands) == 0 {
		t.Fatal("no bands recovered")
	}
	for i, b := range bands {
		if b.Size <= 0 || b.Rep <= 0 {
			t.Fatalf("degenerate band %+v", b)
		}
		if i > 0 && bands[i].Band <= bands[i-1].Band {
			t.Fatalf("bands not sorted")
		}
	}
}

func TestIWEmpty(t *testing.T) {
	e := newIW(0.1, 1024, 5, rng.New(7))
	if got := e.EstimateCollisions(2); got != 0 {
		t.Fatalf("empty estimate %v", got)
	}
	if e.Bands() != nil {
		t.Fatal("empty Bands not nil")
	}
}

func TestIWSpaceIndependentOfStreamLength(t *testing.T) {
	e := newIW(0.1, 256, 3, rng.New(8))
	before := 0
	for i := 1; i <= 200000; i++ {
		e.Observe(stream.Item(i%77777 + 1))
		if i == 1000 {
			before = e.SpaceBytes()
		}
	}
	after := e.SpaceBytes()
	// Candidate trackers saturate; only slack from TopK fill remains.
	if float64(after) > 1.5*float64(before) {
		t.Fatalf("IW space grew %d → %d", before, after)
	}
}

func TestIWPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("newIW(EpsPrime=0) did not panic")
			}
		}()
		newIW(0, 1024, 5, rng.New(1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("EstimateCollisions(0) did not panic")
			}
		}()
		e := newIW(0.1, 1024, 5, rng.New(1))
		e.EstimateCollisions(0)
	}()
}

func TestIWInsideAlgorithm1(t *testing.T) {
	// E10 feeds IW the sampled stream Algorithm 1 sees and reads C2(L) off
	// it as Algorithm 1 would read its collision counter's: the estimate
	// must land in a sane range at the width E10 runs, in bounded space.
	s := zipfStream(100000, 5000, 1.25, 9)
	g := stream.NewFreq(s)
	exactC2 := g.Collisions(2)
	e := newIW(0.05, 2048, 5, rng.New(10))
	feedIW(e, s)
	got := e.EstimateCollisions(2)
	if got < exactC2/3 || got > exactC2*3 {
		t.Fatalf("IW C2 %v, exact %v", got, exactC2)
	}
	if e.SpaceBytes() <= 0 {
		t.Fatal("space not positive")
	}
}

// refIWObserve is iwEstimator.Observe as it stood before ObserveEstimate
// fused the per-level sketch update and point query.
func refIWObserve(e *iwEstimator, it stream.Item) {
	e.nL++
	deepest := e.levelOf(it)
	for t := 0; t <= deepest; t++ {
		lvl := &e.levels[t]
		lvl.count++
		lvl.cs.Observe(it)
		if est := lvl.cs.Estimate(it); est > 0 {
			lvl.cands.Update(it, float64(est))
		}
	}
}

func TestIWObserveMatchesReference(t *testing.T) {
	// iwBytes is the estimator's state: IW has no payload of its own, so
	// each level's count, sketch and candidates in their wire forms.
	iwBytes := func(e *iwEstimator) []byte {
		w := &wire.Writer{}
		w.U64(e.nL)
		for t := range e.levels {
			w.U64(e.levels[t].count)
			w.Nest(e.levels[t].cs)
			w.Nest(e.levels[t].cands)
		}
		return w.Bytes()
	}
	// The level set's differential inputs at budget 16, drawn in the
	// same order from the same generator.
	r := rng.New(42)
	runHeavy := make(stream.Slice, 0, 20000)
	for _, it := range zipfStream(800, 131, 1.1, 7) {
		for n := 1 + r.Uint64n(40); n > 0; n-- {
			runHeavy = append(runHeavy, it)
		}
	}
	wide := make(stream.Slice, 8000)
	keys := make([]stream.Item, 98)
	for i := range keys {
		keys[i] = stream.Item(r.Uint64() | 1<<63)
	}
	for i := range wide {
		wide[i] = keys[r.Uint64n(uint64(len(keys)))]
	}
	withZero := zipfStream(5000, 65, 1.1, 9)
	for i := range withZero {
		withZero[i]-- // rank 1, the heaviest item, becomes key 0
	}
	distinct := make(stream.Slice, 640)
	for i := range distinct {
		distinct[i] = stream.Item(i)
	}
	for name, s := range map[string]stream.Slice{
		"zipf":           zipfStream(20000, 261, 1.1, 1),
		"run-heavy":      runHeavy,
		"distinct-storm": distinct, // every count 1
		"under-capacity": zipfStream(3000, 8, 1.1, 3),
		"key-zero":       withZero,
		"wide-keys":      wide,
		"empty":          nil,
	} {
		ref, one := newIW(0.1, 64, 5, rng.New(5)), newIW(0.1, 64, 5, rng.New(5))
		for _, it := range s {
			refIWObserve(ref, it)
			one.Observe(it)
		}
		if !bytes.Equal(iwBytes(one), iwBytes(ref)) {
			t.Fatalf("%s: fused observe differs from Observe+Estimate", name)
		}
	}
}

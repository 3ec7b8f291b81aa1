package window_test

import (
	"math"
	"testing"

	"substream/internal/estimator"
	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/window"

	_ "substream/internal/sample"
)

// scopedSum asks one scope of the ring for a subset sum the way the
// daemon does: Scope picks the estimator, its Summer (if any) answers.
func scopedSum(t *testing.T, e *window.Estimator, windowScope bool, pred func(stream.Item) bool) (float64, bool) {
	t.Helper()
	acc, err := e.Scope(windowScope)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := estimator.SummerOf(acc)
	if !ok {
		return 0, false
	}
	return s.SubsetSum(pred), true
}

// TestWindowedVarOptSubsetSum is the "bytes from subnet X in the last 5
// epochs" scenario: a windowed VarOpt reservoir fed weighted (key,
// bytes) items across rotating epochs must answer the window-scoped
// subset sum from only the retained epochs, and the cumulative subset
// sum from everything since boot.
func TestWindowedVarOptSubsetSum(t *testing.T) {
	const (
		W        = 5
		epochs   = 9
		perEpoch = 400
	)
	clock := window.NewManualClock()
	e := build(t, "varopt", W, clock)

	// "Subnet X": keys 1..64. Weights are deterministic "byte counts".
	pred := func(it stream.Item) bool { return it <= 64 }
	r := rng.New(33)
	perEpochSubnet := make([]float64, epochs)
	var cumSubnet float64
	for ep := 0; ep < epochs; ep++ {
		batch := make(stream.WSlice, perEpoch)
		for i := range batch {
			key := stream.Item(r.Uint64n(512) + 1)
			bytes := float64(64 + r.Uint64n(1400))
			batch[i] = stream.WItem{Key: key, Weight: bytes}
			if pred(key) {
				perEpochSubnet[ep] += bytes
				cumSubnet += bytes
			}
		}
		e.UpdateWeightedBatch(batch)
		if ep < epochs-1 {
			clock.Advance()
		}
	}

	var wantWindow float64
	for ep := epochs - W; ep < epochs; ep++ {
		wantWindow += perEpochSubnet[ep]
	}

	// The reservoir Budget (256) is below the 3600 retained items, so the
	// answers are estimates; the subnet carries ~1/8 of a heavy stream, so
	// a 35% relative tolerance is loose enough to be robust at this fixed
	// seed while still catching scope mix-ups (window vs cumulative differ
	// by ~45%).
	got, ok := scopedSum(t, e, true, pred)
	if !ok {
		t.Fatal("varopt window lost its subset-sum capability")
	}
	if math.Abs(got-wantWindow) > 0.35*wantWindow {
		t.Fatalf("window subset sum %v, want ~%v", got, wantWindow)
	}
	if math.Abs(got-cumSubnet) < math.Abs(cumSubnet-wantWindow)/2 {
		t.Fatalf("window subset sum %v tracks the cumulative scope %v, not the window %v",
			got, cumSubnet, wantWindow)
	}
	cum, ok := scopedSum(t, e, false, pred)
	if !ok {
		t.Fatal("varopt cumulative lost its subset-sum capability")
	}
	if math.Abs(cum-cumSubnet) > 0.35*cumSubnet {
		t.Fatalf("cumulative subset sum %v, want ~%v", cum, cumSubnet)
	}

	// The wrapper rides the registry wire format: a decoded ring keeps
	// answering the same window query.
	data, err := estimator.Adapt(e).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := estimator.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	we, ok := estimator.Unwrap(dec).(*window.Estimator)
	if !ok {
		t.Fatalf("decoded window payload is %T", estimator.Unwrap(dec))
	}
	got2, ok := scopedSum(t, we, true, pred)
	if !ok || !near(got, got2) {
		t.Fatalf("decoded ring answers %v (ok=%v), want %v", got2, ok, got)
	}
}

// TestWindowWeightedFallback checks the projection for inner kinds with
// no weighted path: weighted batches must land as bare keys, exactly one
// observation per item, in both scopes.
func TestWindowWeightedFallback(t *testing.T) {
	clock := window.NewManualClock()
	e := build(t, "fk-exact", 3, clock)
	batch := stream.WSlice{
		{Key: 1, Weight: 100}, {Key: 2, Weight: 0.5}, {Key: 1, Weight: 7},
	}
	e.UpdateWeightedBatch(batch)
	e.ObserveWeighted(3, 42)
	bare, err := estimator.New(innerSpec("fk-exact"))
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []stream.Item{1, 2, 1, 3} {
		bare.Observe(it)
	}
	est := e.Estimates()
	for name, want := range bare.Estimates() {
		if est[name] != want || est["window_"+name] != want {
			t.Fatalf("projection fed wrong observations: %s = %v, window_%s = %v, want %v in both scopes",
				name, est[name], name, est["window_"+name], want)
		}
	}
	if _, ok := scopedSum(t, e, false, func(stream.Item) bool { return true }); ok {
		t.Fatal("fk window claims a subset-sum capability")
	}
}

package window_test

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	_ "substream/internal/core"
	"substream/internal/estimator"
	"substream/internal/pipeline"
	_ "substream/internal/quantile"
	"substream/internal/rng"
	"substream/internal/sketch"
	"substream/internal/stream"
	"substream/internal/window"
	"substream/internal/wire"
	"substream/internal/workload"
)

// innerSpec returns the construction spec tests build inner replicas
// from; every replica of one test shares it, per the mergeability rule.
// "fk-exact" names fk over the exact collision counter.
func innerSpec(stat string) estimator.Spec {
	spec := estimator.Spec{
		Stat: stat, P: 0.5, K: 2, Epsilon: 0.2, Alpha: 0.05, Budget: 256, Seed: 9,
	}
	if stat == "fk-exact" {
		spec.Stat, spec.Exact = "fk", true
	}
	return spec
}

// build constructs a windowed estimator over stat with W epochs on clock.
func build(t *testing.T, stat string, w int, clock window.Clock) *window.Estimator {
	t.Helper()
	e, err := window.New(window.Config{
		Window:   w,
		EpochLen: time.Second,
		Clock:    clock,
		New:      func() (estimator.Estimator, error) { return estimator.New(innerSpec(stat)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// epochStream returns a deterministic workload split into epoch slices.
func epochStream(t *testing.T, epochs, perEpoch int) []stream.Slice {
	t.Helper()
	wl := workload.Zipf(epochs*perEpoch, 2048, 1.1, 4)
	s := stream.Collect(wl.Stream)
	out := make([]stream.Slice, epochs)
	for i := range out {
		out[i] = s[i*perEpoch : (i+1)*perEpoch]
	}
	return out
}

// near compares two estimates up to float-summation-order drift (the
// kinds over the exact counting store need none: they sum over the
// profile of the counts).
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestWindowMatchesReplay is the acceptance equivalence test: after
// feeding E epochs, the windowed estimate over the last W epochs must
// match a fresh estimator fed only those epochs' items — for F0 over its
// KMV sketch, Fk over the exact collision counter, and entropy over its
// plug-in (all with exact merges), so equality is exact; Fk's
// bounded-merge level-set backend is checked with tolerance separately in
// TestWindowLevelsetWithinMergeTolerance.
func TestWindowMatchesReplay(t *testing.T) {
	const epochs, perEpoch, W = 7, 3000, 3
	slices := epochStream(t, epochs, perEpoch)
	for _, stat := range []string{"f0", "fk-exact", "entropy"} {
		t.Run(stat, func(t *testing.T) {
			clock := window.NewManualClock()
			we := build(t, stat, W, clock)
			for ep, items := range slices {
				clock.Set(uint64(ep))
				we.UpdateBatch(items)
			}

			// Replay: a fresh estimator fed only the last W epochs.
			replay, err := estimator.New(innerSpec(stat))
			if err != nil {
				t.Fatal(err)
			}
			for _, items := range slices[epochs-W:] {
				replay.UpdateBatch(items)
			}
			// And a fresh cumulative estimator fed everything.
			cum, err := estimator.New(innerSpec(stat))
			if err != nil {
				t.Fatal(err)
			}
			for _, items := range slices {
				cum.UpdateBatch(items)
			}

			got := we.Estimates()
			for name, want := range replay.Estimates() {
				if !near(got["window_"+name], want) {
					t.Errorf("window_%s = %v, replay of last %d epochs = %v", name, got["window_"+name], W, want)
				}
			}
			for name, want := range cum.Estimates() {
				if !near(got[name], want) {
					t.Errorf("cumulative %s = %v, sequential = %v", name, got[name], want)
				}
			}
		})
	}
}

// TestWindowLevelsetWithinMergeTolerance checks Fk over the bounded-merge
// level-set backend: windowed vs replay agreement within the backend's
// documented merge band.
func TestWindowLevelsetWithinMergeTolerance(t *testing.T) {
	const epochs, perEpoch, W = 6, 5000, 3
	slices := epochStream(t, epochs, perEpoch)
	clock := window.NewManualClock()
	we := build(t, "fk", W, clock)
	for ep, items := range slices {
		clock.Set(uint64(ep))
		we.UpdateBatch(items)
	}
	replay, err := estimator.New(innerSpec("fk"))
	if err != nil {
		t.Fatal(err)
	}
	for _, items := range slices[epochs-W:] {
		replay.UpdateBatch(items)
	}
	got := we.Estimates()["window_fk"]
	want := replay.Estimates()["fk"]
	if want <= 0 {
		t.Fatalf("degenerate replay estimate %v", want)
	}
	if rel := math.Abs(got-want) / want; rel > 0.25 {
		t.Fatalf("windowed level-set fk %v vs replay %v (rel %.3f)", got, want, rel)
	}
}

// TestWindowDropsExpiredEpochs pins the monitoring semantics: traffic
// older than W epochs leaves the window estimate but stays cumulative.
func TestWindowDropsExpiredEpochs(t *testing.T) {
	clock := window.NewManualClock()
	we := build(t, "fk-exact", 2, clock)

	we.UpdateBatch(stream.Slice{1, 2, 3, 4, 5}) // epoch 0
	clock.Set(1)
	we.UpdateBatch(stream.Slice{6, 7}) // epoch 1
	got := we.Estimates()
	if got["window_sampled_length"] != 7 || got["sampled_length"] != 7 {
		t.Fatalf("window still spans both epochs: %v", got)
	}

	clock.Set(2) // epoch 0 expires from the 2-epoch window
	got = we.Estimates()
	if got["window_sampled_length"] != 2 {
		t.Fatalf("expired epoch still in window: window_sampled_length = %v, want 2", got["window_sampled_length"])
	}
	if got["sampled_length"] != 7 {
		t.Fatalf("cumulative estimate lost history: sampled_length = %v, want 7", got["sampled_length"])
	}

	clock.Set(100) // long idle: everything windows out in O(W)
	got = we.Estimates()
	if got["window_sampled_length"] != 0 || got["sampled_length"] != 7 {
		t.Fatalf("idle expiry: window_sampled_length = %v (want 0), sampled_length = %v (want 7)",
			got["window_sampled_length"], got["sampled_length"])
	}
}

// TestMergeAlignsMismatchedEpochs merges two replicas snapshotted at
// different epochs — the collector's view of agents on different flush
// schedules — and checks the result equals the union window at the
// NEWER epoch, with the older side's expired generations dropped.
func TestMergeAlignsMismatchedEpochs(t *testing.T) {
	const W = 2
	clockA, clockB := window.NewManualClock(), window.NewManualClock()
	a := build(t, "fk-exact", W, clockA)
	b := build(t, "fk-exact", W, clockB)

	// Agent A last rotated at epoch 1; agent B is already at epoch 3.
	a.UpdateBatch(stream.Slice{1, 2}) // epoch 0 — will be outside [2, 3]
	clockA.Set(1)
	a.UpdateBatch(stream.Slice{3}) // epoch 1 — also outside [2, 3]
	clockB.Set(2)
	b.UpdateBatch(stream.Slice{10, 11}) // epoch 2
	clockB.Set(3)
	b.UpdateBatch(stream.Slice{12}) // epoch 3

	if err := b.Merge(a); err != nil {
		t.Fatal(err)
	}
	got := b.Estimates()
	if got["window_sampled_length"] != 3 {
		t.Fatalf("aligned window_sampled_length = %v, want 3 (epochs 2-3 only)", got["window_sampled_length"])
	}
	if got["sampled_length"] != 6 {
		t.Fatalf("cumulative sampled_length = %v, want 6 (both agents, all epochs)", got["sampled_length"])
	}

	// The reverse merge aligns A forward to epoch 3 first and must agree.
	a2 := build(t, "fk-exact", W, clockA)
	a2.UpdateBatch(stream.Slice{1, 2})
	clockA.Set(1)
	a2.UpdateBatch(stream.Slice{3})
	b2 := build(t, "fk-exact", W, clockB)
	clockB.Set(2)
	// b2's clock is already at 3; rebuild its history via merge from b is
	// not possible (b was mutated), so feed it afresh.
	b2.UpdateBatch(stream.Slice{10, 11})
	clockB.Set(3)
	b2.UpdateBatch(stream.Slice{12})
	if err := a2.Merge(b2); err != nil {
		t.Fatal(err)
	}
	got2 := a2.Estimates()
	if got2["window_sampled_length"] != got["window_sampled_length"] || got2["sampled_length"] != got["sampled_length"] {
		t.Fatalf("merge is not symmetric after alignment: %v vs %v", got2, got)
	}
}

// TestMergeRejectsIncompatibleShapes pins the compatibility checks.
func TestMergeRejectsIncompatibleShapes(t *testing.T) {
	clock := window.NewManualClock()
	a := build(t, "fk-exact", 2, clock)
	b := build(t, "fk-exact", 3, clock)
	if err := a.Merge(b); err == nil || !strings.Contains(err.Error(), "window of 3") {
		t.Fatalf("mismatched window spans merged: %v", err)
	}
	c, err := window.New(window.Config{
		Window: 2, EpochLen: 2 * time.Second, Clock: clock,
		New: func() (estimator.Estimator, error) { return estimator.New(innerSpec("fk-exact")) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(c); err == nil || !strings.Contains(err.Error(), "epoch length") {
		t.Fatalf("mismatched epoch lengths merged: %v", err)
	}
	d := build(t, "f0", 2, clock)
	if err := a.Merge(d); err == nil {
		t.Fatal("foreign inner kinds merged")
	}
}

// TestPipelineMergeAllStaysCorrect runs windowed replicas through the
// sharded pipeline on one shared clock, rotating at quiesce points, and
// checks MergeAll reproduces the sequential windowed estimator.
func TestPipelineMergeAllStaysCorrect(t *testing.T) {
	const epochs, perEpoch, W = 5, 4000, 2
	slices := epochStream(t, epochs, perEpoch)

	clock := window.NewManualClock()
	pl := pipeline.New(pipeline.Config{Shards: 4, BatchSize: 128}, func(int) estimator.Estimator {
		e, err := window.Wrap(window.Config{
			Window: W, EpochLen: time.Second, Clock: clock,
			New: func() (estimator.Estimator, error) { return estimator.New(innerSpec("f0")) },
		})
		if err != nil {
			panic(err)
		}
		return e
	})
	seqClock := window.NewManualClock()
	seq := build(t, "f0", W, seqClock)

	for ep, items := range slices {
		// Sync before rotating: workers apply batches asynchronously, so
		// the epoch boundary needs the pipeline quiescent (see package doc).
		pl.Sync()
		clock.Set(uint64(ep))
		pl.FeedSlice(items)
		seqClock.Set(uint64(ep))
		seq.UpdateBatch(items)
	}
	merged, err := pipeline.MergeAll(pl)
	if err != nil {
		t.Fatal(err)
	}
	got, want := merged.Estimates(), seq.Estimates()
	for name, v := range want {
		if !near(got[name], v) {
			t.Errorf("pipeline %s = %v, sequential = %v", name, got[name], v)
		}
	}
	if _, ok := window.EpochOf(merged); !ok {
		t.Fatal("merged pipeline replica lost its window wrapper")
	}
}

// TestRoundTripThroughRegistry serializes a live ring, revives it
// through the registry's Decode entry point, and checks the frozen
// replica answers identically and still merges.
func TestRoundTripThroughRegistry(t *testing.T) {
	const W = 3
	clock := window.NewManualClock()
	we := build(t, "f0", W, clock)
	slices := epochStream(t, 4, 2000)
	for ep, items := range slices {
		clock.Set(uint64(ep))
		we.UpdateBatch(items)
	}
	adapted := estimator.Adapt(we)
	payload, err := adapted.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := estimator.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, want := decoded.Estimates(), adapted.Estimates()
	for name, v := range want {
		if !near(got[name], v) {
			t.Errorf("decoded %s = %v, source = %v", name, got[name], v)
		}
	}
	ep, ok := window.EpochOf(decoded)
	if !ok || ep != 3 {
		t.Fatalf("decoded epoch = %d (%v), want 3", ep, ok)
	}

	// A decoded summary must merge into a live ring (the collector path).
	live := build(t, "f0", W, clock)
	if err := estimator.Adapt(live).Merge(decoded); err != nil {
		t.Fatalf("merging decoded summary: %v", err)
	}
	if merged := live.Estimates(); !near(merged["f0"], want["f0"]) {
		t.Fatalf("merged cumulative f0 = %v, want %v", merged["f0"], want["f0"])
	}
	// And re-encode.
	if _, err := estimator.Adapt(live).MarshalBinary(); err != nil {
		t.Fatalf("re-encode merged ring: %v", err)
	}
}

// TestDecodeRejectsCorruption sweeps truncations and targeted
// corruptions; every one must fail cleanly, never panic or recurse.
func TestDecodeRejectsCorruption(t *testing.T) {
	clock := window.NewManualClock()
	we := build(t, "f0", 2, clock)
	we.UpdateBatch(stream.Slice{1, 2, 3})
	payload, err := we.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := wire.Decode(payload[:cut], window.Decode); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := wire.Decode(append(append([]byte(nil), payload...), 0), window.Decode); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Window count beyond MaxWindow must fail before allocating.
	huge := append([]byte(nil), payload...)
	huge[10], huge[11], huge[12], huge[13] = 0xff, 0xff, 0xff, 0xff
	if _, err := wire.Decode(huge, window.Decode); err == nil {
		t.Fatal("absurd window count accepted")
	}
}

// TestDecodeRejectsMixedKindRing splices a foreign-kind generation into
// an otherwise valid window payload: the ring must be proven
// self-consistent at decode time, not first surface as a silent merge
// failure on a later query. A component's own payload — the KMV an f0
// replica nests — is no registered kind, so it is refused as one.
func TestDecodeRejectsMixedKindRing(t *testing.T) {
	clock := window.NewManualClock()
	f0 := build(t, "f0", 1, clock)
	f0.UpdateBatch(stream.Slice{1, 2, 3})
	good, err := f0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	gee, err := estimator.New(innerSpec("gee"))
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := gee.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	component, err := sketch.NewKMV(1024, rng.New(9)).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The single generation payload is the last nested field; replace it
	// with the foreign payload (4-byte length prefix + bytes, per Nested).
	r := wire.NewReader(good)
	r.Header(window.TagWindow)
	r.I64()        // epoch length
	r.U32()        // window span
	r.U64()        // epoch
	_ = r.Nested() // pristine
	_ = r.Nested() // cumulative
	genOffset := len(good) - r.Remaining()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	splice := func(payload []byte) []byte {
		w := &wire.Writer{}
		w.Nested(payload)
		return append(append([]byte(nil), good[:genOffset]...), w.Bytes()...)
	}
	if _, err := wire.Decode(splice(foreign), window.Decode); err == nil ||
		!strings.Contains(err.Error(), "do not merge") {
		t.Fatalf("mixed-kind ring decoded: %v", err)
	}
	if _, err := wire.Decode(splice(component), window.Decode); err == nil ||
		!strings.Contains(err.Error(), "unknown payload tag") {
		t.Fatalf("ring with a bare component generation decoded: %v", err)
	}
	// Sanity: the unspliced payload still decodes.
	if _, err := wire.Decode(good, window.Decode); err != nil {
		t.Fatal(err)
	}
}

// TestNestedWindowRejected builds a syntactically valid window payload
// whose pristine replica is itself a window payload; the decode-time tag
// gate must refuse it.
func TestNestedWindowRejected(t *testing.T) {
	clock := window.NewManualClock()
	inner := build(t, "f0", 1, clock)
	_, err := window.New(window.Config{
		Window: 1, EpochLen: time.Second, Clock: clock,
		New: func() (estimator.Estimator, error) { return estimator.Adapt(inner), nil },
	})
	if err == nil || !strings.Contains(err.Error(), "cannot ride") {
		t.Fatalf("window-in-window construction allowed: %v", err)
	}
}

// TestConfigValidation pins New's input checks.
func TestConfigValidation(t *testing.T) {
	newInner := func() (estimator.Estimator, error) { return estimator.New(innerSpec("f0")) }
	cases := map[string]window.Config{
		"zero window":    {Window: 0, EpochLen: time.Second, New: newInner},
		"huge window":    {Window: window.MaxWindow + 1, EpochLen: time.Second, New: newInner},
		"zero epoch len": {Window: 2, New: newInner},
		"nil factory":    {Window: 2, EpochLen: time.Second},
	}
	for name, cfg := range cases {
		if _, err := window.New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestWindowedQuantileRidesRing pins the composite-gate boundary from
// the other side: the quantile tag (0x40) lies OUTSIDE the 0x30–0x3f
// composite range, so a quantile summary must nest inside window
// payloads — construct, rotate, survive the wire round-trip — and
// surface "window_p99"-style keys scoped to the last W epochs.
func TestWindowedQuantileRidesRing(t *testing.T) {
	const epochs, perEpoch, W = 6, 4000, 2
	slices := epochStream(t, epochs, perEpoch)
	clock := window.NewManualClock()
	we := build(t, "quantile", W, clock)
	for ep, items := range slices {
		clock.Set(uint64(ep))
		we.UpdateBatch(items)
	}
	est := we.Estimates()
	for _, key := range []string{"n", "p50", "p99", "window_n", "window_p50", "window_p99", "window_p999"} {
		if _, ok := est[key]; !ok {
			t.Fatalf("windowed quantile estimates missing %q", key)
		}
	}
	if est["n"] != float64(epochs*perEpoch) {
		t.Errorf("cumulative n = %v, want %d", est["n"], epochs*perEpoch)
	}
	if est["window_n"] != float64(W*perEpoch) {
		t.Errorf("window_n = %v, want %d", est["window_n"], W*perEpoch)
	}

	// The window-scoped p99 must answer for the last W epochs' items
	// within the merged CKMS bound (W shards → 2ε·n ranks).
	var last []float64
	for _, s := range slices[epochs-W:] {
		for _, it := range s {
			last = append(last, float64(it))
		}
	}
	sort.Float64s(last)
	n := float64(len(last))
	got := est["window_p99"]
	lo := sort.SearchFloat64s(last, got)
	hi := sort.Search(len(last), func(i int) bool { return last[i] > got })
	rankErr := 0.0
	if float64(hi) < 0.99*n {
		rankErr = 0.99*n - float64(hi)
	} else if float64(lo) > 0.99*n {
		rankErr = float64(lo) - 0.99*n
	}
	if bound := 2 * 0.001 * n; rankErr > bound {
		t.Errorf("window_p99 rank error %.0f > 2ε·n = %.0f", rankErr, bound)
	}

	// Wire round-trip: generations and the cumulative replica re-merge
	// deterministically, so a decoded ring answers identically.
	data, err := we.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	d, err := wire.Decode(data, window.Decode)
	if err != nil {
		t.Fatalf("windowed quantile failed to decode: %v", err)
	}
	dest := d.Estimates()
	for key, v := range est {
		if !near(dest[key], v) {
			t.Errorf("decoded ring %s = %v, want %v", key, dest[key], v)
		}
	}
}

// TestSettleReachesEveryReplicaOfTheRing: the pipeline's settling hook,
// forwarded by the ring, orders the exact counting store of the current
// generation, of an older one that was still unsettled when its epoch
// ended, and of the cumulative replica — each drops its item index, which
// is how it shows from outside — and the ring answers as a twin that was
// never settled does.
func TestSettleReachesEveryReplicaOfTheRing(t *testing.T) {
	clock := window.NewManualClock()
	e, twin := build(t, "entropy", 3, clock), build(t, "entropy", 3, clock)
	slices := epochStream(t, 2, 3000)
	for _, ring := range []*window.Estimator{e, twin} {
		ring.UpdateBatch(slices[0])
	}
	clock.Advance()
	for _, ring := range []*window.Estimator{e, twin} {
		ring.UpdateBatch(slices[1])
	}
	// What one store's index weighs: a generation's worth of items, fed,
	// then settled (an answer only reads, so it drops nothing).
	inner, err := estimator.New(innerSpec("entropy"))
	if err != nil {
		t.Fatal(err)
	}
	inner.UpdateBatch(slices[0])
	index := inner.SpaceBytes()
	estimator.Unwrap(inner).(interface{ Settle() }).Settle()
	if index -= inner.SpaceBytes(); index <= 0 {
		t.Fatalf("settling a fed store freed %d bytes, want its index", index)
	}

	fed := e.SpaceBytes()
	e.Settle()
	settled := e.SpaceBytes()
	if fed-settled < 3*index {
		t.Fatalf("Settle took the ring from %d to %d bytes, less than three stores' indexes (%d each)", fed, settled, index)
	}
	e.Settle()
	if again := e.SpaceBytes(); again != settled {
		t.Fatalf("a second Settle moved the ring from %d to %d bytes", settled, again)
	}
	want := twin.Estimates()
	for name, v := range e.Estimates() {
		if v != want[name] {
			t.Errorf("%s = %v after Settle, %v on the twin", name, v, want[name])
		}
	}
}

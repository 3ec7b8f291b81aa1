package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"

	"substream/internal/server"
	"substream/internal/stream"
)

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median of even sample = %v, want 4", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample must be NaN, so a missing metric is caught")
	}
}

// A tail percentile may be reported only with ten samples beyond it.
func TestSupportedTailTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5},       // too few even for a tail: the median stands in
		{19, 0.5},      //
		{20, 0.5},      // 1 − 10/20
		{100, 0.9},     // ten of a hundred lie beyond p90
		{1000, 0.99},   // exactly enough for p99
		{100000, 0.99}, // never above what was asked for
		{999, 1 - 10.0/999},
	} {
		if got := supportedTail(c.n, 0.99); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("supportedTail(%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i)
	}
	v, at := tail(s, 0.99)
	if at != 0.95 || v != percentile(s, 0.95) {
		t.Errorf("tail of 200 samples reported p%v = %v, want p95", at*100, v)
	}
	if beyond := float64(len(s)) * (1 - at); beyond < 10 {
		t.Errorf("only %v samples beyond the reported percentile", beyond)
	}
}

func TestSliceMedianIgnoresOneBurst(t *testing.T) {
	counts := []float64{100, 100, 100, 100, 5, 100, 100, 100, 100, 100} // one noisy-neighbour slice
	if got := sliceMedian(counts, 2); got != 50 {
		t.Errorf("sliceMedian = %v, want 50/s", got)
	}
}

// A request's items are credited to slices in proportion to the time it
// spent in each, and only for the part inside the window.
func TestCreditSpreadsOverSlices(t *testing.T) {
	ms := time.Millisecond
	slices := make([]float64, 3)              // three 10 ms slices
	credit(slices, 10*ms, 5*ms, 25*ms, 200)   // 5 ms + 10 ms + 5 ms of a 20 ms request
	credit(slices, 10*ms, -10*ms, 10*ms, 100) // half before the window
	credit(slices, 10*ms, 25*ms, 45*ms, 100)  // three quarters after it
	credit(slices, 10*ms, 40*ms, 50*ms, 100)  // all after it
	want := []float64{50 + 50, 100, 50 + 25}
	for i := range want {
		if math.Abs(slices[i]-want[i]) > 1e-9 {
			t.Errorf("slice %d credited %v, want %v", i, slices[i], want[i])
		}
	}
}

// quartiles must be Python's statistics.quantiles(v, n=4): the driver
// judges spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1}) // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread = %v, want (8.25−2.75)/5.5", got)
	}
}

func TestAgreeUsesTheBetterDirection(t *testing.T) {
	up := agree(metricDef{name: "x", better: "higher", bound: 0.10}, []float64{100, 95})
	if !up.Agree || math.Abs(up.Worst-0.05) > 1e-12 {
		t.Errorf("higher-is-better 100 vs 95: %+v", up)
	}
	down := agree(metricDef{name: "x", better: "lower", bound: 0.10}, []float64{100, 120})
	if down.Agree || math.Abs(down.Worst-0.2) > 1e-12 {
		t.Errorf("lower-is-better 100 vs 120 at a 10%% bound: %+v", down)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "flush", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "ship", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "ship", Start: 50, End: 80}, // overlaps its sibling: [10,80) covered once
		{ID: 4, Parent: 2, Name: "marshal", Start: 10, End: 30},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 140}, // clipped to the parent: covers [90,100)
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 7}, // unknown parent: a root
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 20, 2: 30, 3: 30, 4: 20, 5: 50, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestBudgetGapAndTopLayer(t *testing.T) {
	b := budget{Total: 100}
	b.add("socket", 50, "")
	b.add("update", 30, "")
	b.finish()
	if b.Top != "socket" || math.Abs(b.GapPct-20) > 1e-9 || b.Rows[1].Share != 30 {
		t.Errorf("budget = %+v", b)
	}
}

// The dashboard is an open loop: a refresh is due on schedule whatever
// the collector does, its latency runs from the due time, and how late
// it started is recorded. A collector that takes 30 ms per query against
// a 10 ms period must show both.
func TestOpenLoopChargesFromDueTime(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(30 * time.Millisecond)
		w.Write([]byte(`{"fed":0,"estimates":{"values":{}}}`))
	})
	srv, err := server.Start("127.0.0.1:0", slow)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(t.Context())
	e := &env{collSrv: srv, def: &workloadDef{refreshEvery: 10 * time.Millisecond, streams: []streamDef{{name: "s"}}}}
	res := loopResult{refreshNs: make([]int64, 0, 64), latenessNs: make([]int64, 0, 64)}
	start := time.Now()
	e.dashboard(&res, start, start, start.Add(100*time.Millisecond))
	if res.failed != 0 || len(res.refreshNs) < 2 {
		t.Fatalf("dashboard: %d failures, %d samples: %v", res.failed, len(res.refreshNs), res.notes)
	}
	// Refresh k is due at 10k ms but cannot start before refresh k−1 ends at
	// ≥30k ms: it starts ≥20k ms late and completes ≥30(k+1)−10k ms after due.
	for k := range res.refreshNs {
		late, lat := time.Duration(res.latenessNs[k]), time.Duration(res.refreshNs[k])
		if wantLate := time.Duration(20*k) * time.Millisecond; late < wantLate {
			t.Errorf("refresh %d started %v after its due time, want ≥ %v", k, late, wantLate)
		}
		if wantLat := time.Duration(30+20*k) * time.Millisecond; lat < wantLat {
			t.Errorf("refresh %d latency %v from its due time, want ≥ %v", k, lat, wantLat)
		}
		if lat < late {
			t.Errorf("refresh %d: latency %v shorter than its own lateness %v", k, lat, late)
		}
	}
}

func TestSeekableZipf(t *testing.T) {
	const m, n = 1 << 10, 200_000
	z := newSeekableZipf(m, zipfS, 42)
	seq := make([]uint64, n)
	counts := make([]int, m+1)
	for i := range seq {
		seq[i] = z.Nth(uint64(i))
		if seq[i] < 1 || seq[i] > m {
			t.Fatalf("Nth(%d) = %d outside [1, %d]", i, seq[i], m)
		}
		counts[seq[i]]++
	}
	// Seekable: any element, in any order, from a fresh generator.
	z2 := newSeekableZipf(m, zipfS, 42)
	for _, i := range []int{n - 1, 0, 77_777, 3} {
		if got := z2.Nth(uint64(i)); got != seq[i] {
			t.Errorf("Nth(%d) = %d out of order, %d in order", i, got, seq[i])
		}
	}
	if newSeekableZipf(m, zipfS, 43).Nth(5) == seq[5] && newSeekableZipf(m, zipfS, 43).Nth(6) == seq[6] && newSeekableZipf(m, zipfS, 43).Nth(7) == seq[7] {
		t.Error("a different seed produced the same sequence")
	}
	// P(rank) ∝ rank^-s.
	var h float64
	for r := 1; r <= m; r++ {
		h += math.Pow(float64(r), -zipfS)
	}
	for _, r := range []int{1, 2, 10} {
		want := math.Pow(float64(r), -zipfS) / h
		got := float64(counts[r]) / n
		if sigma := math.Sqrt(want * (1 - want) / n); math.Abs(got-want) > 5*sigma {
			t.Errorf("rank %d frequency %.5f, want %.5f ± %.5f", r, got, want, 5*sigma)
		}
	}
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	in := &inputs{items: genItems(9, 4096), weights: genWeights(9, 4096)}
	again := &inputs{items: genItems(9, 4096), weights: genWeights(9, 4096)}
	for _, weighted := range []bool{false, true} {
		a, b := newBodySet(in, 0, 4096, 1024, weighted), newBodySet(again, 0, 4096, 1024, weighted)
		for i := range a.bodies {
			if !bytes.Equal(a.bodies[i], b.bodies[i]) {
				t.Fatalf("weighted=%v body %d differs between two runs of one seed", weighted, i)
			}
		}
	}
	if other := genItems(10, 4096); bytes.Equal(encodeBinary(other), encodeBinary(in.items)) {
		t.Error("two seeds produced identical bodies")
	}
	// The weight the daemon will parse from the text is the weight truth uses.
	parsed, err := stream.ReadWeightedText(bytes.NewReader(encodeWeightedText(in.items, in.weights)))
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range parsed {
		if it.Key != in.items[i] || it.Weight != in.weights[i] {
			t.Fatalf("item %d parses as (%d, %v), truth holds (%d, %v)", i, it.Key, it.Weight, in.items[i], in.weights[i])
		}
	}
	if !inSubset(keyOf(1)) || inSubset(keyOf(2)) || keyOf(1) == 0 {
		t.Error("keyOf must put odd ranks inside 10.0.0.0/8 and even ranks outside")
	}
}

func TestTruthIsBodiesTimesSendCounts(t *testing.T) {
	in := &inputs{items: genItems(3, 64), weights: genWeights(3, 64)}
	f := newFeed(newBodySet(in, 16, 64, 16, true)) // bodies cover items [16,32) [32,48) [48,64)
	f.sent = []uint64{2, 0, 5}
	got := computeTruth(in, []*feed{f}, true)

	want := stream.Freq{}
	var totalW, subsetW float64
	replay := func(lo, hi int, times int) {
		for ; times > 0; times-- {
			for i := lo; i < hi; i++ {
				want[in.items[i]]++
				totalW += in.weights[i]
				if inSubset(in.items[i]) {
					subsetW += in.weights[i]
				}
			}
		}
	}
	replay(16, 32, 2)
	replay(48, 64, 5)
	if got.fed != 7*16 || len(got.freq) != len(want) {
		t.Fatalf("fed %d over %d keys, want %d over %d", got.fed, len(got.freq), 7*16, len(want))
	}
	for k, c := range want {
		if got.freq[k] != c {
			t.Errorf("freq[%d] = %d, want %d", k, got.freq[k], c)
		}
	}
	if relErr(got.totalW, totalW) > 1e-12 || relErr(got.subsetW, subsetW) > 1e-12 {
		t.Errorf("weights %v/%v, want %v/%v", got.totalW, got.subsetW, totalW, subsetW)
	}
	if f.items() != 7*16 {
		t.Errorf("feed.items() = %d, want %d", f.items(), 7*16)
	}
}

func TestParseIngested(t *testing.T) {
	for in, want := range map[string]int{`{"ingested":4096}` + "\n": 4096, `{"ingested":0}`: 0, `{"error":"x"}`: -1, `{"ingested":}`: -1, ``: -1} {
		if got := parseIngested([]byte(in)); got != want {
			t.Errorf("parseIngested(%q) = %d, want %d", in, got, want)
		}
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json is written from the tables in metrics.go and
// workloads.go; this keeps the two from drifting.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.go has %q", i, bj.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in metrics.go", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := bj.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, metrics.go has %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go (128 allowed)", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if got := bj.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, metrics.go has %+v", i, got, d)
		}
		if seen[d.name] || len(d.name) > 64 || len(d.unit) > 16 {
			t.Errorf("per-layer %q: duplicate, or name/unit too long", d.name)
		}
		seen[d.name] = true
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
}

// TestSmoke is the tier-1 proof that the benchmark still builds, runs
// all four workloads through both passes at toy scale, passes its own
// correctness checks and prints every metric it promises.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < minProcs || runtime.GOMAXPROCS(0) < minProcs {
		t.Skipf("the benchmark refuses to run on fewer than %d CPUs", minProcs)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "5", "-seconds", smokeSeconds}, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark -smoke exited %d:\n%s", code, stderr.String())
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("report is not one JSON document: %v", err)
	}
	for _, w := range workloads {
		wr := rep.Workloads[w.name]
		if wr == nil {
			t.Errorf("%s missing from the report", w.name)
			continue
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d failed: %v", w.name, wr.Correct, wr.Failed, wr.Attempted, wr.Failures)
		}
		for _, d := range endToEnd {
			if m, ok := wr.EndToEnd[d.name]; !ok || m.Unit != d.unit || m.Value == 0 {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", w.name, d.name, m, ok)
			}
		}
		for _, d := range perLayer {
			if m, ok := wr.PerLayer[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: per-layer %s missing or in the wrong unit: %+v", w.name, d.name, m)
			}
		}
		if wr.Budget == nil || len(wr.Budget.Rows) == 0 {
			t.Errorf("%s: no budget table", w.name)
		}
	}
}

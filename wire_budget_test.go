package substream_bench

import "testing"

// TestMarshalMonitorAllocBudget holds BenchmarkMarshalMonitor to the
// single-buffer encode: what one MarshalBinary allocates is the payload it
// returns plus the scratch the largest level-set repetition sorts its keys
// in — 8 bytes a key, which Budget bounds (the entropy plug-in's store is
// ordered by the first marshal and streams out with no scratch after it;
// the term for its distinct items stays in the budget as slack). Twice the
// payload covers the sizing pass, which counts the keys of a run it is
// handed out of order at up to their full length where the payload holds
// their deltas. (v2, with a buffer per nesting level, allocated 8× its
// payload.)
func TestMarshalMonitorAllocBudget(t *testing.T) {
	distinct := map[uint64]bool{}
	for _, it := range sampledZipf(1<<15, 0.2) {
		distinct[uint64(it)] = true
	}
	res := testing.Benchmark(BenchmarkMarshalMonitor)
	payload := int64(res.Extra["bytes/summary"])
	scratch := int64(8*(len(distinct)+4096) + 1<<10)
	if got := res.AllocedBytesPerOp(); payload == 0 || got > 2*payload+scratch {
		t.Fatalf("MarshalBinary allocates %d B/op for a %d-byte payload, budget 2x + %d of key-sort scratch", got, payload, scratch)
	}
}

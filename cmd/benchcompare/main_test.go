package main

import (
	"regexp"
	"strings"
	"testing"
)

const baseJSON = `{"Action":"start","Package":"substream"}
{"Action":"output","Package":"substream","Output":"BenchmarkHotPath/countmin/batch1024-4 \t 5059 \t 45069 ns/op\t 181.76 MB/s\t 44.01 ns/item\t 0 B/op\t 0 allocs/op\n"}
{"Action":"output","Package":"substream","Output":"BenchmarkServerIngest/binary-4 \t 24532 \t 96507 ns/op\t 339.54 MB/s\t 138895 B/op\t 100 allocs/op\n"}
{"Action":"output","Package":"substream","Output":"BenchmarkOnlyInBase-4 \t 10 \t 100 ns/op\n"}
{"Action":"output","Package":"substream","Output":"not a benchmark line\n"}
`

const headJSON = `{"Action":"output","Package":"substream","Output":"BenchmarkHotPath/countmin/batch1024-8 \t 114550 \t 21383 ns/op\t 383.12 MB/s\t 20.88 ns/item\t 0 B/op\t 0 allocs/op\n"}
{"Action":"output","Package":"substream","Output":"BenchmarkServerIngest/binary-8 \t 40101 \t 58832 ns/op\t 556.98 MB/s\t 40281 B/op\t 97 allocs/op\n"}
{"Action":"output","Package":"substream","Output":"BenchmarkOnlyInHead-8 \t 10 \t 100 ns/op\n"}
`

func TestParseTest2JSON(t *testing.T) {
	base, err := parse(strings.NewReader(baseJSON), false)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := base["BenchmarkHotPath/countmin/batch1024"]
	if !ok {
		t.Fatalf("countmin benchmark not parsed (GOMAXPROCS suffix kept?): %v", base)
	}
	if res.NsPerOp != 45069 || !res.HasMBs || res.MBPerS != 181.76 {
		t.Fatalf("parsed metrics wrong: %+v", res)
	}
	if len(base) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(base))
	}
}

// TestParseSplitSubBenchmark covers go test's real sub-benchmark shape:
// a metrics-only output event whose Test field names the benchmark.
func TestParseSplitSubBenchmark(t *testing.T) {
	split := `{"Action":"run","Test":"BenchmarkHotPath/kmv/batch64"}
{"Action":"output","Test":"BenchmarkHotPath/kmv/batch64","Output":"BenchmarkHotPath/kmv/batch64\n"}
{"Action":"output","Test":"BenchmarkHotPath/kmv/batch64","Output":"  404896\t      1310 ns/op\t 390.81 MB/s\t        20.47 ns/item\t       0 B/op\t       0 allocs/op\n"}
`
	got, err := parse(strings.NewReader(split), false)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := got["BenchmarkHotPath/kmv/batch64"]
	if !ok {
		t.Fatalf("split sub-benchmark not parsed: %v", got)
	}
	if res.NsPerOp != 1310 || res.MBPerS != 390.81 {
		t.Fatalf("split metrics wrong: %+v", res)
	}
}

func TestParsePlainBenchOutput(t *testing.T) {
	raw := "goos: linux\nBenchmarkX-2 \t 100 \t 250.5 ns/op\t 12.3 MB/s\nPASS\n"
	got, err := parse(strings.NewReader(raw), false)
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := got["BenchmarkX"]; !ok || res.NsPerOp != 250.5 {
		t.Fatalf("plain output not parsed: %v", got)
	}
}

func TestRenderComparison(t *testing.T) {
	base, _ := parse(strings.NewReader(baseJSON), false)
	head, _ := parse(strings.NewReader(headJSON), false)
	var sb strings.Builder
	if err := render(&sb, base, head, 5); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"2 benchmarks compared",
		"HotPath/countmin/batch1024",
		"ServerIngest/binary",
		"-52.6%", // countmin 45069 -> 21383
		"181.8 → 383.1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "OnlyInBase") || strings.Contains(out, "OnlyInHead") {
		t.Fatalf("benchmarks missing from one side must not be compared:\n%s", out)
	}
}

// TestParseBestOf pins the -best-of semantics: a -count run emits the
// same benchmark several times, and best-of keeps the lowest ns/op (the
// noise-robust statistic on a shared runner), where the default keeps
// the last.
func TestParseBestOf(t *testing.T) {
	counted := "BenchmarkIngest-4 \t 10 \t 300 ns/op\t 100 MB/s\n" +
		"BenchmarkIngest-4 \t 10 \t 200 ns/op\t 150 MB/s\n" +
		"BenchmarkIngest-4 \t 10 \t 250 ns/op\t 120 MB/s\n"
	last, err := parse(strings.NewReader(counted), false)
	if err != nil {
		t.Fatal(err)
	}
	if res := last["BenchmarkIngest"]; res.NsPerOp != 250 {
		t.Fatalf("default must keep the last result, got %+v", res)
	}
	best, err := parse(strings.NewReader(counted), true)
	if err != nil {
		t.Fatal(err)
	}
	if res := best["BenchmarkIngest"]; res.NsPerOp != 200 || res.MBPerS != 150 {
		t.Fatalf("best-of must keep the lowest ns/op with its MB/s, got %+v", res)
	}
}

// TestMergeAcrossFiles covers the multi-head-file shape: each file after
// the base is parsed separately and folded together, best-of keeping the
// per-benchmark minimum across files.
func TestMergeAcrossFiles(t *testing.T) {
	head := map[string]benchResult{}
	for _, run := range []string{
		"BenchmarkIngest-4 \t 10 \t 280 ns/op\n",
		"BenchmarkIngest-4 \t 10 \t 210 ns/op\nBenchmarkOther-4 \t 10 \t 50 ns/op\n",
		"BenchmarkIngest-4 \t 10 \t 260 ns/op\n",
	} {
		h, err := parse(strings.NewReader(run), true)
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range h {
			merge(head, name, res, true)
		}
	}
	if res := head["BenchmarkIngest"]; res.NsPerOp != 210 {
		t.Fatalf("merge must keep the minimum across files, got %+v", res)
	}
	if res := head["BenchmarkOther"]; res.NsPerOp != 50 {
		t.Fatalf("benchmarks present in one file must survive the merge, got %+v", res)
	}
}

func TestFilterMatch(t *testing.T) {
	m := map[string]benchResult{
		"BenchmarkServerIngest/binary": {NsPerOp: 1},
		"BenchmarkServerIngest/text":   {NsPerOp: 2},
		"BenchmarkHotPath/kmv":         {NsPerOp: 3},
	}
	filter(m, regexp.MustCompile("ServerIngest|NoSuchBench"))
	if len(m) != 2 {
		t.Fatalf("filter kept %d benchmarks, want the 2 ServerIngest ones: %v", len(m), m)
	}
	filter(m, regexp.MustCompile(""))
	if len(m) != 2 {
		t.Fatalf("empty match must be a no-op, got %v", m)
	}
}

// TestGate pins the red-gate contract: only regressions beyond the bound
// fail, improvements and benchmarks missing from the base never do.
func TestGate(t *testing.T) {
	base := map[string]benchResult{
		"BenchmarkIngest": {NsPerOp: 100},
		"BenchmarkOther":  {NsPerOp: 100},
	}
	head := map[string]benchResult{
		"BenchmarkIngest":  {NsPerOp: 109}, // +9%: inside a 10% bound
		"BenchmarkOther":   {NsPerOp: 90},  // improvement
		"BenchmarkNewOnly": {NsPerOp: 999}, // no baseline, cannot gate
	}
	if failed := gate(base, head, 10); len(failed) != 0 {
		t.Fatalf("within-bound head must pass the gate, got %v", failed)
	}
	head["BenchmarkIngest"] = benchResult{NsPerOp: 125}
	failed := gate(base, head, 10)
	if len(failed) != 1 || !strings.Contains(failed[0], "BenchmarkIngest") || !strings.Contains(failed[0], "+25.0%") {
		t.Fatalf("25%% regression must trip a 10%% gate with its delta, got %v", failed)
	}
}

func TestRenderThresholdHidesNoise(t *testing.T) {
	base, _ := parse(strings.NewReader(`BenchmarkSame-1 	 10 	 100 ns/op`+"\n"), false)
	head, _ := parse(strings.NewReader(`BenchmarkSame-1 	 10 	 101 ns/op`+"\n"), false)
	var sb strings.Builder
	if err := render(&sb, base, head, 5); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "| Same |") {
		t.Fatalf("1%% move should be hidden at 5%% threshold:\n%s", sb.String())
	}
	sb.Reset()
	if err := render(&sb, base, head, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "| Same |") {
		t.Fatalf("threshold 0 must show every row:\n%s", sb.String())
	}
}

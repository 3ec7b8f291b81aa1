package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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

// pairedSides builds a parent and a change side for one case from
// per-pair ns/op readings and per-run allocs/op.
func pairedSides(parentNs, changeNs []float64, parentAllocs, changeAllocs float64) (map[string][]benchResult, map[string][]benchResult) {
	parent, change := map[string][]benchResult{}, map[string][]benchResult{}
	for i := range parentNs {
		parent["BenchmarkX"] = append(parent["BenchmarkX"], benchResult{NsPerOp: parentNs[i], AllocsPerOp: parentAllocs, BytesPerOp: 64 * parentAllocs})
		change["BenchmarkX"] = append(change["BenchmarkX"], benchResult{NsPerOp: changeNs[i], AllocsPerOp: changeAllocs, BytesPerOp: 64 * changeAllocs})
	}
	return parent, change
}

// noisy returns eight readings of base ns/op drifting as a shared box
// does between minutes: ±12 % from pair to pair, with ±3 % jitter on top.
func noisy(base float64, jitter []float64) []float64 {
	drift := []float64{1.00, 1.12, 0.90, 1.05, 0.95, 1.10, 0.88, 1.02}
	out := make([]float64, len(drift))
	for i := range drift {
		out[i] = base * drift[i] * (1 + jitter[i])
	}
	return out
}

// TestPairedVerdict pins the paired mode's contract: a real 10 % slip
// under box drift wider than itself fails, an A/A run under the same
// drift passes, a real gain reads faster, and one allocation added to an
// alloc-free case fails whatever the time says.
func TestPairedVerdict(t *testing.T) {
	jitterA := []float64{0.02, -0.03, 0.01, -0.01, 0.03, -0.02, 0.00, 0.01}
	jitterB := []float64{-0.01, 0.02, -0.03, 0.03, -0.02, 0.01, 0.02, -0.03}
	cases := []struct {
		name                   string
		parentNs, changeNs     []float64
		parentAllocs, chAllocs float64
		wantTime               string
		wantFail               bool
	}{
		{"10% slower, noisy", noisy(100, jitterA), noisy(110, jitterB), 3, 3, "slower", true},
		{"A/A", noisy(100, jitterA), noisy(100, jitterB), 3, 3, "flat", false},
		{"20% faster", noisy(100, jitterA), noisy(80, jitterB), 3, 3, "faster", false},
		{"one allocation on a 0-alloc case", noisy(100, jitterA), noisy(100, jitterB), 0, 1, "flat", true},
		{"fewer allocations", noisy(100, jitterA), noisy(100, jitterB), 4, 3, "flat", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parent, change := pairedSides(tc.parentNs, tc.changeNs, tc.parentAllocs, tc.chAllocs)
			vs := paired(parent, change, 5)
			if len(vs) != 1 || vs[0].Pairs != 8 {
				t.Fatalf("verdicts %+v, want one case over 8 pairs", vs)
			}
			if v := vs[0]; v.TimeVerdict != tc.wantTime || v.failed() != tc.wantFail {
				t.Fatalf("verdict %+v: time %q failed %v, want %q %v", v, v.TimeVerdict, v.failed(), tc.wantTime, tc.wantFail)
			}
			var sb strings.Builder
			if failed := renderPaired(&sb, vs, 5); failed != tc.wantFail || strings.Contains(sb.String(), "FAIL") != tc.wantFail {
				t.Fatalf("rendered failed=%v, want %v:\n%s", failed, tc.wantFail, sb.String())
			}
		})
	}
}

// TestSignTail pins the sign test's tail against hand-counted values and
// the pair counts the verdict needs.
func TestSignTail(t *testing.T) {
	for _, tc := range []struct {
		k, n int
		want float64
	}{{0, 5, 1}, {5, 5, 1.0 / 32}, {4, 5, 6.0 / 32}, {5, 6, 7.0 / 64}, {7, 8, 9.0 / 256}, {9, 10, 11.0 / 1024}, {8, 10, 56.0 / 1024}} {
		if got := signTail(tc.k, tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("signTail(%d, %d) = %g, want %g", tc.k, tc.n, got, tc.want)
		}
	}
}

// TestPairedMajorityIsNotAVerdict checks the case the sign test exists
// for: an untouched case whose pairs read 4 of 6 slower with a median
// above the band stays flat.
func TestPairedMajorityIsNotAVerdict(t *testing.T) {
	parent, change := pairedSides([]float64{100, 100, 100, 100, 100, 100}, []float64{120, 115, 111, 98, 104, 90}, 0, 0)
	if v := paired(parent, change, 5)[0]; v.Slower != 4 || v.TimeVerdict != "flat" || v.failed() {
		t.Fatalf("4 of 6 pairs slower gave %+v, want flat", v)
	}
}

// TestPairedAllocsWithinOwnSpread checks the exact allocation compare
// does not fail a case whose amortised count moves by one within both
// sides' own runs, as CollectEnvelope's 118/119 does.
func TestPairedAllocsWithinOwnSpread(t *testing.T) {
	ns := noisy(100, make([]float64, 8))
	parent, change := pairedSides(ns, ns, 118, 118)
	parent["BenchmarkX"][3].AllocsPerOp = 119
	change["BenchmarkX"][5].AllocsPerOp = 119
	if v := paired(parent, change, 5)[0]; v.failed() {
		t.Fatalf("one amortised allocation inside the parent's spread failed the verdict: %+v", v)
	}
	change["BenchmarkX"] = slices.Clone(change["BenchmarkX"])
	for i := range change["BenchmarkX"] {
		change["BenchmarkX"][i].AllocsPerOp = 120
	}
	if v := paired(parent, change, 5)[0]; !v.MoreAllocs || !v.failed() {
		t.Fatalf("every change run above the parent's most passed: %+v", v)
	}
}

// TestRunPairedReadsAlternatingFiles drives the paired mode from files:
// odd files are the parent's runs, even ones the change's, with the
// B/op and allocs/op go test prints; only -match'ed cases are judged.
func TestRunPairedReadsAlternatingFiles(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i, run := range []string{
		"BenchmarkMerge-2 \t 100 \t 1000 ns/op\t 4096 B/op\t 10 allocs/op\nBenchmarkOther-2 \t 10 \t 50 ns/op\t 0 B/op\t 0 allocs/op\n",
		"BenchmarkMerge-2 \t 100 \t 700 ns/op\t 4104 B/op\t 10 allocs/op\nBenchmarkOther-2 \t 10 \t 99 ns/op\t 0 B/op\t 0 allocs/op\n",
		"BenchmarkMerge-2 \t 100 \t 1100 ns/op\t 4096 B/op\t 10 allocs/op\n",
		"BenchmarkMerge-2 \t 100 \t 760 ns/op\t 4100 B/op\t 10 allocs/op\n",
	} {
		path := filepath.Join(dir, fmt.Sprintf("run-%d.txt", i))
		if err := os.WriteFile(path, []byte(run), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	var sb strings.Builder
	failed, err := runPaired(&sb, paths, regexp.MustCompile("Merge"), 5)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Two pairs cannot make a sign count significant, so the 30 % gain
	// reads flat; the bytes still fail.
	if !failed || !strings.Contains(out, "| Merge | 2 |") || !strings.Contains(out, "flat, +4 B/op, **FAIL**") {
		t.Fatalf("want Merge flat over 2 pairs but failed on +4 B/op:\n%s", out)
	}
	if strings.Contains(out, "Other") {
		t.Fatalf("an unmatched case was judged:\n%s", out)
	}
	if _, err := runPaired(&sb, paths[:3], regexp.MustCompile(""), 5); err == nil {
		t.Fatal("an odd number of files was accepted")
	}
}

// Command benchcompare renders the throughput delta between
// BENCH_<sha>.json artifacts (the test2json benchmark trajectory CI
// uploads per commit) as a Markdown table, benchstat-style: one row per
// benchmark present in both files, with ns/op and MB/s deltas.
//
// It is the comparison half of CI's bench steps. The cross-machine
// PR-base comparison stays warn-only:
//
//	benchcompare BENCH_base.json BENCH_head.json >> "$GITHUB_STEP_SUMMARY"
//
// while the same-benchmark ingest gate runs it in failing mode against
// the committed baseline:
//
//	go test -bench ServerIngest -count 3 -json . > head.json
//	benchcompare -best-of -match ServerIngest -max-regression 10 \
//	  bench/BASELINE.json head.json
//
// Flags:
//
//   - -threshold (percent, default 5) hides rows whose ns/op moved less
//     than the threshold; -threshold 0 lists everything.
//   - -best-of keeps the LOWEST ns/op seen per benchmark instead of the
//     last, so a `-count N` run (or several head files) gates on the
//     best of N — the noise-robust statistic for a shared runner.
//   - -match compares only benchmarks whose name matches the regular
//     expression (unanchored, like go test -bench: 'A|B' gates both).
//   - -max-regression (percent, default 0 = disabled) exits with status
//     3 when any compared benchmark's ns/op regressed by more than the
//     bound — the red-gate mode.
//   - -paired reads its files as alternating parent/change runs on one
//     machine and gives one verdict per benchmark instead (paired.go):
//     the median of the pairwise ns/op ratios with a sign count, banded
//     by -threshold, and allocs/op and B/op compared exactly. It exits 3
//     when a case is slower or allocates more.
//
// The paired mode is CI's per-layer verdict against the PR's base:
//
//	benchcompare -paired -match LevelsetMerge parent-1.txt change-1.txt parent-2.txt change-2.txt
//
// Otherwise more than two files may be given: every file after the first
// is a head artifact, merged (last-wins, or best-of under -best-of). Exit
// status: 0 ok, 1 unreadable input, 2 usage, 3 regression gate tripped.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one benchmark's parsed metrics.
type benchResult struct {
	NsPerOp     float64
	MBPerS      float64
	HasMBs      bool
	BytesPerOp  float64
	AllocsPerOp float64
}

// testEvent is the subset of a test2json event the parser needs.
type testEvent struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

func main() {
	threshold := flag.Float64("threshold", 5, "hide rows whose ns/op changed by less than this percentage (0 = show all)")
	bestOf := flag.Bool("best-of", false, "keep the lowest ns/op per benchmark across repeated results (-count runs, multiple head files) instead of the last")
	match := flag.String("match", "", "compare only benchmarks whose name matches this regular expression")
	maxReg := flag.Float64("max-regression", 0, "exit 3 if any compared benchmark's ns/op regressed by more than this percentage (0 = never fail)")
	pairedMode := flag.Bool("paired", false, "read alternating PARENT CHANGE file pairs and give one verdict per benchmark; exit 3 if any is slower or allocates more")
	flag.Parse()
	if flag.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcompare [flags] BASE.json HEAD.json [HEAD2.json ...]")
		fmt.Fprintln(os.Stderr, "       benchcompare -paired [flags] PARENT1 CHANGE1 [PARENT2 CHANGE2 ...]")
		os.Exit(2)
	}
	matchRE, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare: -match:", err)
		os.Exit(2)
	}
	if *pairedMode {
		failed, err := runPaired(os.Stdout, flag.Args(), matchRE, *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcompare:", err)
			os.Exit(1)
		}
		if failed {
			fmt.Fprintln(os.Stderr, "benchcompare: paired verdict failed: a case is slower or allocates more")
			os.Exit(3)
		}
		return
	}
	base, err := parseFile(flag.Arg(0), *bestOf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
	head := make(map[string]benchResult)
	for _, path := range flag.Args()[1:] {
		h, err := parseFile(path, *bestOf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcompare:", err)
			os.Exit(1)
		}
		for name, res := range h {
			merge(head, name, res, *bestOf)
		}
	}
	filter(base, matchRE)
	filter(head, matchRE)
	if err := render(os.Stdout, base, head, *threshold); err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
	if *maxReg > 0 {
		if failed := gate(base, head, *maxReg); len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "benchcompare: regression gate (> %g%% ns/op): %s\n",
				*maxReg, strings.Join(failed, ", "))
			os.Exit(3)
		}
	}
}

func parseFile(path string, bestOf bool) (map[string]benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f, bestOf)
}

// merge folds one result into out: last-wins normally, lowest ns/op
// under best-of.
func merge(out map[string]benchResult, name string, res benchResult, bestOf bool) {
	if prev, ok := out[name]; bestOf && ok && prev.NsPerOp <= res.NsPerOp {
		return
	}
	out[name] = res
}

// filter drops benchmarks whose name does not match (the empty
// expression matches everything).
func filter(m map[string]benchResult, match *regexp.Regexp) {
	for name := range m {
		if !match.MatchString(name) {
			delete(m, name)
		}
	}
}

// gate returns the names of benchmarks whose ns/op regressed by more
// than maxReg percent, sorted.
func gate(base, head map[string]benchResult, maxReg float64) []string {
	var failed []string
	for name, h := range head {
		b, ok := base[name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		if delta := (h.NsPerOp - b.NsPerOp) / b.NsPerOp * 100; delta > maxReg {
			failed = append(failed, fmt.Sprintf("%s %+.1f%%", name, delta))
		}
	}
	sort.Strings(failed)
	return failed
}

// parse extracts benchmark results from a test2json stream. go test
// emits a sub-benchmark's result as a name-only line followed by a
// metrics-only output event whose Test field carries the benchmark
// name:
//
//	{"Action":"output","Test":"BenchmarkHotPath/countmin/batch1024",
//	 "Output":"   27602\t     21325 ns/op\t 384.16 MB/s\t ...\n"}
//
// while top-level benchmarks (and raw, non-JSON `go test` output, which
// is accepted too so local runs compare without CI) put name and
// metrics on one `Benchmark... ns/op` line. Both shapes are parsed.
// Repeated results for one name (a -count run) keep the last, or the
// lowest ns/op under bestOf.
func parse(r io.Reader, bestOf bool) (map[string]benchResult, error) {
	out := make(map[string]benchResult)
	err := scan(r, func(name string, res benchResult) { merge(out, name, res, bestOf) })
	return out, err
}

// scan hands every benchmark result in a test2json stream (or raw go
// test output) to each, in the order the stream carries them.
func scan(r io.Reader, each func(name string, res benchResult)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		test := ""
		if strings.HasPrefix(line, "{") {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				continue // tolerate foreign lines; the artifact is best-effort
			}
			if ev.Action != "output" {
				continue
			}
			line = strings.TrimSuffix(ev.Output, "\n")
			test = ev.Test
		}
		if name, res, ok := parseBenchLine(line); ok {
			each(name, res)
			continue
		}
		if test != "" && strings.HasPrefix(test, "Benchmark") {
			if res, ok := parseMetrics(strings.Fields(line)); ok {
				each(test, res)
			}
		}
	}
	return sc.Err()
}

// parseBenchLine parses a single-line `Benchmark... ns/op` result.
func parseBenchLine(line string) (string, benchResult, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", benchResult{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", benchResult{}, false
	}
	// Strip the -GOMAXPROCS suffix so runs from machines with different
	// core counts still line up.
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	res, ok := parseMetrics(fields[1:])
	return name, res, ok
}

// parseMetrics scans "value unit" field pairs for the metrics the table
// reports; ns/op is mandatory for a line to count as a result.
func parseMetrics(fields []string) (benchResult, bool) {
	var res benchResult
	found := false
	for i := 0; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
			found = true
		case "MB/s":
			res.MBPerS = v
			res.HasMBs = true
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		}
	}
	return res, found
}

// render writes the Markdown comparison table.
func render(w io.Writer, base, head map[string]benchResult, threshold float64) error {
	names := make([]string, 0, len(head))
	for name := range head {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "### Benchmark comparison\n\n")
	if len(names) == 0 {
		fmt.Fprintf(w, "No benchmarks common to both artifacts.\n")
		return nil
	}
	shown, regressions := 0, 0
	var rows strings.Builder
	for _, name := range names {
		b, h := base[name], head[name]
		if b.NsPerOp <= 0 {
			continue
		}
		delta := (h.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		if delta > threshold {
			regressions++
		}
		if threshold > 0 && delta > -threshold && delta < threshold {
			continue
		}
		shown++
		mbs := ""
		if b.HasMBs && h.HasMBs {
			mbs = fmt.Sprintf("%.1f → %.1f", b.MBPerS, h.MBPerS)
		}
		fmt.Fprintf(&rows, "| %s | %.4g | %.4g | %+.1f%% | %s |\n",
			strings.TrimPrefix(name, "Benchmark"), b.NsPerOp, h.NsPerOp, delta, mbs)
	}
	fmt.Fprintf(w, "%d benchmarks compared, %d moved ≥ %g%% (slower-than-threshold: %d).\n\n",
		len(names), shown, threshold, regressions)
	if shown > 0 {
		fmt.Fprintf(w, "| benchmark | base ns/op | head ns/op | Δ ns/op | MB/s |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|\n")
		fmt.Fprint(w, rows.String())
	}
	return nil
}

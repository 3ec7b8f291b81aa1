package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"substream/internal/stream"
	"substream/internal/workload"
)

// writeStreamFile materializes a workload to a temp file in the CLI's
// text format.
func writeStreamFile(t *testing.T, wl workload.Workload) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := stream.WriteText(f, wl.Stream); err != nil {
		t.Fatal(err)
	}
	return path
}

// baseOpts returns the flag defaults the tests tweak per case.
func baseOpts(stat, path string) options {
	return options{
		stat: stat, p: 0.3, input: path, k: 2, alpha: 0.05, eps: 0.2,
		seed: 1, budget: 1024, shards: 1, batch: 1024,
	}
}

func TestRunAllStats(t *testing.T) {
	path := writeStreamFile(t, workload.Zipf(20000, 500, 1.1, 1))
	for _, stat := range []string{"f0", "fk", "entropy", "hh1", "hh2", "f3", "all"} {
		var out bytes.Buffer
		opt := baseOpts(stat, path)
		opt.exact = true
		if err := run(&out, opt); err != nil {
			t.Fatalf("stat %s: %v", stat, err)
		}
		got := out.String()
		if !strings.Contains(got, "original stream: n=20000") {
			t.Fatalf("stat %s missing header:\n%s", stat, got)
		}
		switch stat {
		case "f0":
			if !strings.Contains(got, "Lemma 8") {
				t.Fatalf("f0 missing bound:\n%s", got)
			}
		case "fk":
			if !strings.Contains(got, "F2 estimate") {
				t.Fatalf("fk output:\n%s", got)
			}
		case "f3":
			if !strings.Contains(got, "F3 estimate") {
				t.Fatalf("f3 shorthand not honoured:\n%s", got)
			}
		case "entropy":
			if !strings.Contains(got, "additive floor") {
				t.Fatalf("entropy output:\n%s", got)
			}
		case "hh1", "hh2":
			if !strings.Contains(got, "est freq") && !strings.Contains(got, "no heavy hitters") {
				t.Fatalf("%s output:\n%s", stat, got)
			}
		case "all":
			for _, want := range []string{"F0 estimate", "H estimate", "heavy hitters"} {
				if !strings.Contains(got, want) {
					t.Fatalf("all output missing %q:\n%s", want, got)
				}
			}
		}
	}
}

// TestRunSharded drives every stat through the -shards path and checks
// the sharded pipeline output matches the sequential shape.
func TestRunSharded(t *testing.T) {
	path := writeStreamFile(t, workload.Zipf(20000, 500, 1.1, 1))
	for _, stat := range []string{"f0", "fk", "entropy", "hh1", "hh2", "all"} {
		var out bytes.Buffer
		opt := baseOpts(stat, path)
		opt.exact = true
		opt.shards = 4
		opt.batch = 256
		if err := run(&out, opt); err != nil {
			t.Fatalf("stat %s sharded: %v", stat, err)
		}
		got := out.String()
		if !strings.Contains(got, "shards=4") {
			t.Fatalf("stat %s missing shard report:\n%s", stat, got)
		}
		if !strings.Contains(got, "estimate") && !strings.Contains(got, "est freq") &&
			!strings.Contains(got, "no heavy hitters") {
			t.Fatalf("stat %s sharded output:\n%s", stat, got)
		}
	}
}

func TestRunHH1FindsPlantedHitters(t *testing.T) {
	path := writeStreamFile(t, workload.PlantedHH(50000, 3, 5000, 10000, 2))
	for _, shards := range []int{1, 4} {
		var out bytes.Buffer
		opt := baseOpts("hh1", path)
		opt.shards = shards
		if err := run(&out, opt); err != nil {
			t.Fatal(err)
		}
		got := out.String()
		for _, id := range []string{"1 ", "2 ", "3 "} {
			if !strings.Contains(got, id) {
				t.Fatalf("shards=%d: planted hitter %q missing:\n%s", shards, id, got)
			}
		}
	}
}

// TestRunWindowed drives the epoch-ring path: the output must carry the
// windowed header plus both cumulative and window_-prefixed estimates,
// sequentially and sharded.
func TestRunWindowed(t *testing.T) {
	path := writeStreamFile(t, workload.Zipf(20000, 500, 1.1, 1))
	for _, shards := range []int{1, 4} {
		var out bytes.Buffer
		opt := baseOpts("f0", path)
		opt.shards = shards
		opt.window = 2
		opt.epoch = 5000
		if err := run(&out, opt); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := out.String()
		for _, want := range []string{"windowed: last 2 epochs", "final epoch 3", "window_f0 estimate", "f0 estimate"} {
			if !strings.Contains(got, want) {
				t.Fatalf("shards=%d: windowed output missing %q:\n%s", shards, want, got)
			}
		}
	}
}

// TestRunWeighted drives -weighted through the varopt reservoir. The
// reservoir's total_weight scalar sums every fed weight exactly, so with
// p=1 it must reproduce the file's total — sequentially, sharded, and
// windowed.
func TestRunWeighted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flows.txt")
	ws := make(stream.WSlice, 0, 5000)
	var total float64
	for i := 1; i <= 5000; i++ {
		wt := 1 + float64(i%7)
		ws = append(ws, stream.WItem{Key: stream.Item(i%97 + 1), Weight: wt})
		total += wt
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.WriteWeightedText(f, ws); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// printEstimates renders scalars with %.6g; derive the expected row
	// from the exact total the same way.
	wantRow := fmt.Sprintf("total_weight estimate: %.6g", total)
	for _, shards := range []int{1, 4} {
		var out bytes.Buffer
		opt := baseOpts("varopt", path)
		opt.p = 1
		opt.weighted = true
		opt.shards = shards
		if err := run(&out, opt); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := out.String()
		for _, want := range []string{"weighted: total weight", wantRow} {
			if !strings.Contains(got, want) {
				t.Fatalf("shards=%d: weighted output missing %q:\n%s", shards, want, got)
			}
		}
	}
	// Windowed: the window_* rows must appear alongside the cumulative
	// ones, and the cumulative total stays exact.
	var out bytes.Buffer
	opt := baseOpts("varopt", path)
	opt.p = 1
	opt.weighted = true
	opt.window = 2
	opt.epoch = 2000
	if err := run(&out, opt); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"window_total_weight estimate", wantRow} {
		if !strings.Contains(got, want) {
			t.Fatalf("windowed weighted output missing %q:\n%s", want, got)
		}
	}
}

func TestRunErrors(t *testing.T) {
	path := writeStreamFile(t, workload.Zipf(1000, 50, 1.0, 3))
	cases := []struct {
		name string
		mut  func(*options)
	}{
		{"unknown stat", func(o *options) { o.stat = "nope" }},
		{"bad p", func(o *options) { o.p = 1.5 }},
		{"missing file", func(o *options) { o.input = path + ".nope" }},
		{"bad shards", func(o *options) { o.shards = 0 }},
		{"bad batch", func(o *options) { o.batch = -1 }},
		{"bad window", func(o *options) { o.window = -1 }},
		{"bad epoch", func(o *options) { o.window = 2; o.epoch = 0 }},
	}
	for _, c := range cases {
		opt := baseOpts("f0", path)
		c.mut(&opt)
		if err := run(new(bytes.Buffer), opt); err == nil {
			t.Fatalf("%s: no error", c.name)
		}
	}
}

// TestRunRefusesComponentStats pins -stat to the registry's stats: each
// component a stat nests is refused with the nine stats listed, and
// "window" with how a window is declared instead, -window around a stat.
func TestRunRefusesComponentStats(t *testing.T) {
	path := writeStreamFile(t, workload.Zipf(1000, 50, 1.0, 3))
	stats := "all | entropy | f0 | fk | gee | hh1 | hh2 | quantile | varopt"
	for _, stat := range []string{"countmin", "countsketch", "kmv", "hll", "spacesaving", "misragries", "topk", "exactcounter", "levelset", "iw"} {
		err := run(new(bytes.Buffer), baseOpts(stat, path))
		if err == nil || !strings.Contains(err.Error(), stats) {
			t.Errorf("-stat %s: err %v, want a refusal listing %s", stat, err, stats)
		}
	}
	err := run(new(bytes.Buffer), baseOpts("window", path))
	if err == nil || !strings.Contains(err.Error(), "-window") || !strings.Contains(err.Error(), stats) {
		t.Errorf("-stat window: err %v, want a refusal naming -window and the stats", err)
	}
}

func TestRunEmptyStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(new(bytes.Buffer), baseOpts("f0", path)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestRunWritesProfiles checks the pprof hooks: a run with -cpuprofile
// and -memprofile must leave non-empty, parseable profile files behind.
func TestRunWritesProfiles(t *testing.T) {
	path := writeStreamFile(t, workload.Zipf(20_000, 1024, 1.2, 5))
	dir := t.TempDir()
	opt := baseOpts("f0", path)
	opt.cpuprofile = filepath.Join(dir, "cpu.pprof")
	opt.memprofile = filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	if err := run(&out, opt); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{opt.cpuprofile, opt.memprofile} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	if !strings.Contains(out.String(), "F0 estimate") {
		t.Fatalf("profiled run lost its output: %q", out.String())
	}
}

func TestListEstimators(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, options{list: true}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"fk", "0x20", "f0", "hh2", "window", "0x30", "quantile", "0x40", "varopt", "0x50"} {
		if !strings.Contains(got, want) {
			t.Fatalf("-list-estimators output missing %q:\n%s", want, got)
		}
	}
	// The window ring is marked so operators know it is declared with
	// -window around a -stat, not as one; quantile is a stat and must
	// carry the stat MODE; the components the stats nest have no row.
	quantileRow := false
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "window") && !strings.Contains(line, "wrapper") {
			t.Fatalf("window row unmarked: %q", line)
		}
		if strings.HasPrefix(line, "levelset") || strings.HasPrefix(line, "countmin") {
			t.Fatalf("component listed as a kind: %q", line)
		}
		if strings.HasPrefix(line, "quantile") {
			quantileRow = true
			if !strings.Contains(line, "stat") || strings.Contains(line, "wrapper") {
				t.Fatalf("quantile row not marked as a stat kind: %q", line)
			}
		}
	}
	if !quantileRow {
		t.Fatal("no quantile row in -list-estimators output")
	}
}

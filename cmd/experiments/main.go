// Command experiments regenerates every reproduction table (E1–E12, listed
// with their claims in internal/experiments/README.md). Each experiment
// validates one quantitative claim of the paper, or probes an extension.
//
// Usage:
//
//	experiments [-run E1,E4] [-scale 1.0] [-trials 0] [-seed 24067] [-list]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"substream/internal/estimator"
	"substream/internal/experiments"
	_ "substream/internal/quantile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		// Flag-parse failures were already reported (with usage) by the
		// FlagSet on stderr; don't print them twice.
		if !errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
		os.Exit(1)
	}
}

// errUsage marks flag-parse failures the FlagSet has already reported.
var errUsage = errors.New("usage error")

// run parses args and executes the selected experiments, writing every
// table to w and diagnostics (usage, flag errors) to errW. Split from
// main so the smoke test can drive the whole pipeline in-process.
func run(args []string, w, errW io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		runIDs = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		scale  = fs.Float64("scale", 1.0, "workload scale factor (1.0 = full run)")
		trials = fs.Int("trials", 0, "override trials per cell (0 = per-experiment default)")
		seed   = fs.Uint64("seed", 24067, "master seed")
		list   = fs.Bool("list", false, "list experiments and exit")
		listE  = fs.Bool("list-estimators", false, "list the registered estimator kinds the experiments draw on and exit")
		par    = fs.Bool("parallel", false, "run experiments concurrently (output buffered per experiment)")
	)
	fs.SetOutput(errW)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h is a successful exit, not an error
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(w, "%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}
	if *listE {
		estimator.WriteKinds(w)
		return nil
	}

	want := map[string]bool{}
	if *runIDs != "" {
		for _, id := range strings.Split(*runIDs, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	cfg := experiments.Config{Scale: *scale, Trials: *trials, Seed: *seed}
	var selected []experiments.Experiment
	for _, e := range experiments.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		selected = append(selected, e)
	}
	if len(selected) == 0 {
		return fmt.Errorf("no experiments matched -run=%q; use -list", *runIDs)
	}

	outputs := make([]string, len(selected))
	runOne := func(i int) {
		e := selected[i]
		var sb strings.Builder
		fmt.Fprintf(&sb, "=== %s: %s\n    claim: %s\n\n", e.ID, e.Title, e.Claim)
		start := time.Now()
		for _, t := range e.Run(cfg) {
			t.Render(&sb)
		}
		fmt.Fprintf(&sb, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		outputs[i] = sb.String()
	}
	if *par {
		var wg sync.WaitGroup
		for i := range selected {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runOne(i)
			}(i)
		}
		wg.Wait()
		for _, out := range outputs {
			fmt.Fprint(w, out)
		}
	} else {
		for i := range selected {
			runOne(i)
			fmt.Fprint(w, outputs[i])
		}
	}
	return nil
}

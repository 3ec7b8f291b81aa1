// Command benchmark is the repository's standing end-to-end and
// per-layer benchmark: it starts real internal/server agents and a
// collector in-process, drives them over loopback HTTP from at most two
// client goroutines, checks every output against exact truth, and prints
// every metric by name with its unit. README.md in this directory is the
// glossary; BENCHMARK.json at the repository root is the contract the
// driver runs it under.
//
//	go run ./benchmark -seed 1                      # all workloads, both passes, one JSON report
//	go run ./benchmark -workload fleet_ship_query -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -repeat 2                    # do two run sets agree within the bounds?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command's flags; there are no environment variables.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    string
	repeat   int
	out      string
	smoke    bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "the only source of randomness: inputs and sampling coins derive from it")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured window per workload, seconds (default 10; 0.3 with -smoke)")
	fs.StringVar(&o.trace, "trace", "both", "0: end-to-end pass only; 1: traced per-layer pass only; both")
	fs.IntVar(&o.repeat, "repeat", 1, "run the whole set N times and report whether the run sets agree within each metric's bound")
	fs.StringVar(&o.out, "out", "", "directory for trace-<workload>.json and budget.md (default: traces stay in memory)")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs and windows, all checks on: proves the harness runs, measures nothing")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch o.trace {
	case "0", "false":
		o.trace = "0"
	case "1", "true":
		o.trace = "1"
	case "both":
	default:
		return o, fmt.Errorf("-trace must be 0, 1 or both, got %q", o.trace)
	}
	if o.seconds == 0 {
		o.seconds = 10
		if o.smoke {
			o.seconds = 0.3
		}
	}
	if o.seconds < 0.1 || o.seconds > 120 {
		return o, fmt.Errorf("-seconds must be in [0.1, 120], got %v", o.seconds)
	}
	if o.repeat < 1 {
		return o, fmt.Errorf("-repeat must be >= 1, got %d", o.repeat)
	}
	if o.workload != "all" && workloadByName(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want all, or one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	return o, nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// workloadReport is one workload's section of the JSON report.
type workloadReport struct {
	Why         string             `json:"why"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	FailedShare float64            `json:"failed_share"`
	Failures    []string           `json:"failures,omitempty"`
	EndToEnd    map[string]metric  `json:"end_to_end,omitempty"`
	PerLayer    map[string]metric  `json:"per_layer,omitempty"`
	Samples     map[string]int     `json:"samples"`
	TailAt      map[string]float64 `json:"tail_percentile_reported,omitempty"`
	EstRelErr   map[string]float64 `json:"est_rel_err"`
	Budget      *budget            `json:"budget,omitempty"`
}

// report is the one JSON document a multi-pass run prints.
type report struct {
	Host      hostInfo                        `json:"host"`
	Seed      uint64                          `json:"seed"`
	Seconds   float64                         `json:"seconds"`
	Smoke     bool                            `json:"smoke,omitempty"`
	Workloads map[string]*workloadReport      `json:"workloads"`
	Repeat    map[string]map[string]agreement `json:"repeat,omitempty"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(stderr, "benchmark:", err)
		}
		return 2
	}
	if runtime.NumCPU() < minProcs || runtime.GOMAXPROCS(0) < minProcs {
		fmt.Fprintf(stderr, "benchmark: needs at least %d CPUs (nproc %d, GOMAXPROCS %d): two load-generator goroutines and two pinned shard workers cannot share one\n",
			minProcs, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		return 2
	}
	sc := fullScale
	if o.smoke {
		sc = smokeScale
	}
	var defs []*workloadDef
	if o.workload == "all" {
		defs = workloads
	} else {
		defs = []*workloadDef{workloadByName(o.workload)}
	}
	window := time.Duration(o.seconds * float64(time.Second))
	host := describeHost()
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}

	rep := report{Host: host, Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke, Workloads: map[string]*workloadReport{}}
	sets := make([]map[string]*passResult, o.repeat) // per run set: workload → untraced pass
	var last resultLine
	failed := false
	var budgets []budget
	for r := 0; r < o.repeat; r++ {
		sets[r] = map[string]*passResult{}
		if o.repeat > 1 {
			fmt.Fprintf(stderr, "run set %d of %d\n", r+1, o.repeat)
		}
		for _, def := range defs {
			wr := &workloadReport{Why: def.why, Correct: true, Samples: map[string]int{}, EstRelErr: map[string]float64{}}
			rep.Workloads[def.name] = wr // the last run set's numbers stand in the report
			absorb := func(p *passResult) {
				wr.Attempted += p.attempted
				wr.Failed += p.failed
				wr.Failures = append(wr.Failures, p.notes...)
				for k, n := range p.samples {
					if _, ok := wr.Samples[k]; !ok { // an end-to-end metric keeps the end-to-end pass's count
						wr.Samples[k] = n
					}
				}
				for k, e := range p.errs {
					wr.EstRelErr[k] = e
				}
			}
			var plain *passResult
			if o.trace != "1" {
				fmt.Fprintf(stderr, "%s: end-to-end pass\n", def.name)
				if plain, err = runPass(def, sc, o.seed, window, false, stderr); err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				absorb(plain)
				sets[r][def.name] = plain
				var missing []string
				if wr.EndToEnd, missing = render(endToEnd, plain.values); len(missing) > 0 {
					fmt.Fprintf(stderr, "benchmark: %s produced no value for %v\n", def.name, missing)
					return 1
				}
				last = resultLine{Metrics: wr.EndToEnd}
			}
			if o.trace != "0" {
				fmt.Fprintf(stderr, "%s: traced pass\n", def.name)
				// The traced window is half the untraced one; a run given only
				// -trace 1 measures its own short untraced reference first, so
				// the tracing overhead is always a measured pair.
				ref := plain
				if ref == nil {
					once := sc
					once.setups = 1 // a reference pass needs no setup_s median
					if ref, err = runPass(def, once, o.seed, window/4, false, stderr); err != nil {
						fmt.Fprintln(stderr, "benchmark:", err)
						return 1
					}
				}
				traced, err := runPass(def, sc, o.seed, window/2, true, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				absorb(traced)
				traced.values["loadgen.trace_overhead_pct"] = 100 * (ref.values["ingest_items_per_s"] - traced.values["ingest_items_per_s"]) / ref.values["ingest_items_per_s"]
				var missing []string
				if wr.PerLayer, missing = render(perLayer, traced.values); len(missing) > 0 {
					fmt.Fprintf(stderr, "benchmark: %s traced pass produced no value for %v\n", def.name, missing)
					return 1
				}
				wr.TailAt = traced.tailAt
				b := buildBudget(traced)
				wr.Budget = &b
				budgets = append(budgets, b)
				b.write(stderr)
				if o.out != "" {
					path := filepath.Join(o.out, "trace-"+def.name+".json")
					if err := writeTrace(path, host, def.name, o.seed, traced.spans); err != nil {
						fmt.Fprintln(stderr, "benchmark:", err)
						return 1
					}
					fmt.Fprintf(stderr, "  wrote %s (%d spans)\n", path, len(traced.spans))
				}
				last = resultLine{Metrics: wr.PerLayer}
			}
			wr.Correct = wr.Failed == 0
			wr.FailedShare = float64(wr.Failed) / float64(max(wr.Attempted, 1))
			last.Correct, last.Attempted, last.Failed = wr.Correct, wr.Attempted, wr.Failed
			if !wr.Correct {
				failed = true
				for _, n := range wr.Failures {
					fmt.Fprintf(stderr, "  FAILED %s: %s\n", def.name, n)
				}
			}
		}
	}
	if o.out != "" && len(budgets) > 0 {
		if err := writeBudgetFile(filepath.Join(o.out, "budget.md"), host, o, budgets); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if o.repeat > 1 && o.trace != "1" {
		rep.Repeat = agreementOf(sets)
		writeAgreement(stderr, rep.Repeat)
	}

	// One workload, one pass: the driver's contract — the result object is
	// the last line of standard output. Anything wider prints the report.
	enc := json.NewEncoder(stdout)
	if len(defs) == 1 && o.trace != "both" && o.repeat == 1 {
		if err := enc.Encode(last); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	} else {
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// writeBudgetFile writes the budget tables with the machine description
// — the content committed as BUDGET.md.
func writeBudgetFile(path string, host hostInfo, o options, budgets []budget) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "Measured with `go run ./benchmark -seed %d -seconds %v` on %s, nproc %d, GOMAXPROCS %d, %s %s/%s.\n\n",
		o.seed, o.seconds, host.CPUModel, host.NProc, host.GOMAXPROCS, host.GoVersion, host.GOOS, host.GOARCH)
	for _, b := range budgets {
		b.write(f)
	}
	return f.Close()
}

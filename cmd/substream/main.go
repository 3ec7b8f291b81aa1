// Command substream runs the paper's estimators over a stream. It reads
// the ORIGINAL stream (file or stdin, one decimal item per line),
// Bernoulli-samples it at rate -p exactly as a sampled-NetFlow monitor
// would, feeds only the sampled stream to the chosen estimator, and
// prints estimate vs exact.
//
// The -stat flag accepts any kind registered with the internal/estimator
// registry (-list-estimators prints them); the paper's headline stats
// get bespoke exact-vs-estimate reporting, everything else prints its
// named estimates.
//
// With -shards N > 1 the stream is ingested through the sharded pipeline
// (internal/pipeline): batches of -batch items are dealt round-robin to N
// workers, each worker samples and feeds its own estimator replica, and
// the replicas are merged into one estimate — the single-machine version
// of the distributed-monitor deployment.
//
// With -window W the estimator is wrapped in an epoch ring
// (internal/window): the input is replayed in epochs of -epoch items,
// and alongside the cumulative estimates the output carries
// "window_"-prefixed estimates covering only the last W epochs — the
// batch-replay twin of the daemon's time-based windows.
//
// With -weighted the input is the weighted text format ("key weight"
// per line, weight column optional, default 1) and items carry their
// weights through the pipeline — pair with -stat varopt for a VarOpt
// reservoir whose subset sums estimate weighted totals.
//
// Usage:
//
//	substream -stat f2 -p 0.1 [-input stream.txt] [-k 3] [-alpha 0.05]
//	          [-shards 4] [-batch 1024] [-window 3 -epoch 10000]
//	substream -stat varopt -weighted -p 1 -input flows.txt
//	substream -list-estimators
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"substream/internal/core"
	"substream/internal/estimator"
	"substream/internal/obs"
	"substream/internal/pipeline"
	_ "substream/internal/quantile"
	"substream/internal/rng"
	_ "substream/internal/sample"
	"substream/internal/stream"
	"substream/internal/window"
)

// options carries every CLI flag; tests drive run with a literal.
type options struct {
	stat       string
	p          float64
	input      string
	k          int
	alpha      float64
	eps        float64
	seed       uint64
	exact      bool
	budget     int
	shards     int
	batch      int
	window     int
	epoch      int
	weighted   bool
	list       bool
	cpuprofile string
	memprofile string
	logLevel   string
	logFormat  string
}

func main() {
	var opt options
	flag.StringVar(&opt.stat, "stat", "f2", "statistic: any registered estimator kind (see -list-estimators)")
	flag.Float64Var(&opt.p, "p", 0.1, "Bernoulli sampling probability")
	flag.StringVar(&opt.input, "input", "", "input stream file (default stdin)")
	flag.IntVar(&opt.k, "k", 2, "moment order for -stat fk")
	flag.Float64Var(&opt.alpha, "alpha", 0.05, "heaviness threshold for hh1/hh2")
	flag.Float64Var(&opt.eps, "eps", 0.2, "target relative error")
	flag.Uint64Var(&opt.seed, "seed", 1, "random seed")
	flag.BoolVar(&opt.exact, "exact-collisions", false, "use the exact collision backend for fk")
	flag.IntVar(&opt.budget, "budget", 4096, "level-set budget for fk")
	flag.IntVar(&opt.shards, "shards", 1, "pipeline shard workers (1 = sequential)")
	flag.IntVar(&opt.batch, "batch", 1024, "pipeline batch size")
	flag.IntVar(&opt.window, "window", 0, "window span in epochs (0 = cumulative only)")
	flag.IntVar(&opt.epoch, "epoch", 10000, "items per epoch for -window")
	flag.BoolVar(&opt.weighted, "weighted", false, "read the weighted text format (\"key weight\" per line)")
	flag.BoolVar(&opt.list, "list-estimators", false, "list registered estimator kinds and exit")
	flag.StringVar(&opt.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&opt.memprofile, "memprofile", "", "write a heap profile at the end of the run to this file")
	flag.StringVar(&opt.logLevel, "log-level", "info", "log verbosity: debug | info | warn | error (debug traces run phases)")
	flag.StringVar(&opt.logFormat, "log-format", "text", "log encoding: text | json")
	flag.Parse()

	if err := run(os.Stdout, opt); err != nil {
		fmt.Fprintln(os.Stderr, "substream:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, opt options) error {
	if opt.list {
		estimator.WriteKinds(w)
		return nil
	}
	// Diagnostics go to stderr as structured logs; stdout stays the
	// machine-readable estimate report.
	logger, err := obs.NewLogger(opt.logLevel, opt.logFormat, os.Stderr)
	if err != nil {
		return err
	}
	// Profiling hooks so perf work can attach pprof evidence without
	// patching the binary: the CPU profile covers the whole ingest run,
	// the heap profile snapshots live memory after it.
	if opt.cpuprofile != "" {
		f, err := os.Create(opt.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if opt.memprofile != "" {
		defer func() {
			f, err := os.Create(opt.memprofile)
			if err != nil {
				logger.Warn("memprofile", "err", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				logger.Warn("memprofile", "err", err)
			}
		}()
	}
	var in io.Reader = os.Stdin
	if opt.input != "" {
		f, err := os.Open(opt.input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	// Accept "f3" etc. as shorthand for -stat fk -k 3.
	if len(opt.stat) == 2 && opt.stat[0] == 'f' && opt.stat[1] >= '2' && opt.stat[1] <= '9' {
		opt.k = int(opt.stat[1] - '0')
		opt.stat = "fk"
	}

	// -weighted parses the "key weight" format into a weighted slice and
	// keeps a bare-key view of it for exact-statistics reporting; the
	// unweighted path is untouched.
	readStart := time.Now()
	var s stream.Slice
	var ws stream.WSlice
	if opt.weighted {
		ws, err = stream.ReadWeightedText(in)
		if err != nil {
			return err
		}
		s = ws.Keys()
	} else {
		s, err = stream.ReadText(in)
		if err != nil {
			return err
		}
	}
	logger.Debug("stream loaded", "items", len(s), "elapsed", time.Since(readStart))
	if len(s) == 0 {
		return fmt.Errorf("empty input stream")
	}
	if opt.p <= 0 || opt.p > 1 {
		return fmt.Errorf("p must be in (0, 1], got %v", opt.p)
	}
	if opt.shards < 1 || opt.batch < 1 {
		return fmt.Errorf("shards and batch must be >= 1, got %d and %d", opt.shards, opt.batch)
	}
	if opt.window < 0 || opt.window > window.MaxWindow {
		return fmt.Errorf("window must be in [0, %d], got %d", window.MaxWindow, opt.window)
	}
	if opt.window > 0 && opt.epoch < 1 {
		return fmt.Errorf("epoch must be >= 1 item, got %d", opt.epoch)
	}

	r := rng.New(opt.seed)
	// Every estimator replica is constructed from this one spec (seed
	// included); identical construction state is what makes the replicas
	// mergeable.
	spec := estimator.Spec{
		Stat: opt.stat, P: opt.p, K: opt.k, Epsilon: opt.eps,
		Alpha: opt.alpha, Budget: opt.budget, Exact: opt.exact,
		Seed: r.Uint64(),
	}
	if _, err := estimator.New(spec); err != nil {
		return err
	}
	f := stream.NewFreq(s)
	fmt.Fprintf(w, "original stream: n=%d distinct=%d\n", len(s), f.F0())
	if opt.weighted {
		var totalW float64
		for i := range ws {
			totalW += ws[i].Weight
		}
		fmt.Fprintf(w, "weighted: total weight %.6g\n", totalW)
	}

	// With -window the replicas are epoch rings sharing one manual clock
	// the feed loop advances every -epoch items — count-driven epochs,
	// the batch-replay twin of the daemon's wall-clock ones.
	newInner := func() (estimator.Estimator, error) { return estimator.New(spec) }
	newReplica := newInner
	var clock *window.ManualClock
	if opt.window > 0 {
		clock = window.NewManualClock()
		newReplica = func() (estimator.Estimator, error) {
			return window.Wrap(window.Config{
				Window:   opt.window,
				EpochLen: time.Duration(opt.epoch),
				Clock:    clock,
				New:      newInner,
			})
		}
		if _, err := newReplica(); err != nil {
			return err
		}
	}

	// Both shard counts Bernoulli-sample at opt.p inside the pipeline
	// workers, so -shards 1 reproduces the classic sequential monitor and
	// -shards N merely spreads the same work across cores.
	pl := pipeline.New(pipeline.Config{
		Shards:    opt.shards,
		BatchSize: opt.batch,
		SampleP:   opt.p,
		Seed:      r.Uint64(),
	}, func(int) estimator.Estimator {
		e, err := newReplica()
		if err != nil {
			panic(err) // unreachable: spec probe-constructed above
		}
		return e
	})
	feedStart := time.Now()
	feed := func(lo, hi int) {
		if opt.weighted {
			pl.FeedWeightedSlice(ws[lo:hi])
		} else {
			pl.FeedSlice(s[lo:hi])
		}
	}
	if clock == nil {
		feed(0, len(s))
	} else {
		for start := 0; start < len(s); start += opt.epoch {
			// Quiesce before each boundary so every queued batch lands in
			// its own epoch, then rotate and feed the next slice.
			pl.Sync()
			clock.Set(uint64(start / opt.epoch))
			feed(start, min(start+opt.epoch, len(s)))
		}
	}
	merged, err := pipeline.MergeAll(pl)
	if err != nil {
		return err
	}
	logger.Debug("ingest complete",
		"fed", len(s), "kept", pl.Kept(), "shards", opt.shards,
		"elapsed", time.Since(feedStart))
	fmt.Fprintf(w, "sampled |L|=%d (p=%g, shards=%d, batch=%d)\n",
		pl.Kept(), opt.p, opt.shards, opt.batch)
	if clock != nil {
		fmt.Fprintf(w, "windowed: last %d epochs of %d items each (final epoch %d); window_* rows below\n",
			opt.window, opt.epoch, clock.Epoch())
	}

	// The paper's headline kinds report estimate vs exact with their
	// analytic bounds; any other registered kind prints its named
	// estimates — new kinds need no CLI change to be usable.
	switch e := estimator.Unwrap(merged).(type) {
	case *core.F0Estimator:
		report(w, "F0", e.Estimate(), float64(f.F0()))
		fmt.Fprintf(w, "guaranteed multiplicative bound: %.2f (Lemma 8)\n", e.ErrorBound())
	case *core.FkEstimator:
		report(w, fmt.Sprintf("F%d", opt.k), e.Estimate(), f.Fk(opt.k))
		fmt.Fprintf(w, "minimum meaningful p (Thm 1): %.4g\n",
			core.MinSamplingP(uint64(f.F0()), uint64(len(s)), opt.k))
	case *core.EntropyEstimator:
		report(w, "H", e.Estimate(), f.Entropy())
		fmt.Fprintf(w, "additive floor (Thm 5): %.4g bits\n", e.AdditiveFloor(uint64(len(s))))
	case *core.F1HeavyHitters:
		printHitters(w, e.Report(), f)
	case *core.F2HeavyHitters:
		printHitters(w, e.Report(), f)
	case *core.Monitor:
		rep := e.Report()
		report(w, "n", rep.EstimatedLength, float64(len(s)))
		report(w, fmt.Sprintf("F%d", max(opt.k, 2)), rep.Fk, f.Fk(max(opt.k, 2)))
		report(w, "F0", rep.F0, float64(f.F0()))
		report(w, "H", rep.Entropy, f.Entropy())
		fmt.Fprintf(w, "F1 heavy hitters:\n")
		printHitters(w, rep.F1HeavyHitters, f)
	default:
		printEstimates(w, merged)
	}
	return nil
}

// printEstimates renders a registry kind's named estimates in sorted
// order.
func printEstimates(w io.Writer, e estimator.Estimator) {
	vals := e.Estimates()
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s estimate: %.6g\n", name, vals[name])
	}
}

func report(w io.Writer, name string, est, exact float64) {
	rel := 0.0
	if exact != 0 {
		rel = (est - exact) / exact
	}
	fmt.Fprintf(w, "%s estimate: %.6g   exact: %.6g   relative error: %+.2f%%\n",
		name, est, exact, 100*rel)
}

func printHitters(w io.Writer, hh []core.ReportedHitter, f stream.Freq) {
	if len(hh) == 0 {
		fmt.Fprintln(w, "no heavy hitters detected")
		return
	}
	fmt.Fprintf(w, "%-12s %-14s %-10s\n", "item", "est freq", "true freq")
	for _, h := range hh {
		fmt.Fprintf(w, "%-12d %-14.1f %-10d\n", h.Item, h.Freq, f[h.Item])
	}
}

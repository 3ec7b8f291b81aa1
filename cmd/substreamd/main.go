// Command substreamd is the network monitoring daemon: the paper's
// sampled-NetFlow topology as a long-running service (see
// internal/server).
//
// Agent mode owns named streams, ingests item batches over HTTP,
// Bernoulli-samples them in its sharded pipeline, and periodically ships
// its cumulative estimator state to the collector:
//
//	substreamd -role agent -listen :8080 -upstream http://collector:8081 \
//	           -id router-7 -flush 10s \
//	           -streams '{"flows": {"stat": "f0", "p": 0.05, "seed": 42}}'
//
// Collector mode accepts shipped summaries and serves the merged global
// estimate; -max-summary-age stops long-dead agents from haunting it:
//
//	substreamd -role collector -listen :8081 -max-summary-age 5m
//
// Both halves of the ship path tolerate faults: agents retry transient
// ship failures with capped jittered backoff (-ship-retries,
// -ship-backoff) behind a per-upstream circuit breaker
// (-breaker-threshold), and a collector given -snapshot-dir atomically
// checkpoints its retained summary table every -snapshot-interval and
// restores it on startup, so a restart forgets nothing. There is no
// replay queue: summaries are cumulative, so the next flush repairs any
// loss (see internal/server's "Fault tolerance" notes).
//
// The -streams flag takes either inline JSON ({"name": {config...}}) or
// a path to a JSON file of the same shape, decoded strictly: a key no
// config field has (a misspelt "eps", say) or anything after the object is
// a startup error, as it is a 400 on PUT /v1/streams/{name}. Stream configs
// may set "window"/"epoch" for epoch-ring windowed estimation, and the agent
// flags -window/-epoch apply fleet-wide defaults to streams that set
// none. Both roles serve /healthz and /metricsz and shut down gracefully
// on SIGINT/SIGTERM (agents perform a final flush first, bounded by
// -flush-timeout).
//
// Ingest accepts unweighted bodies (text/plain, application/octet-stream)
// and weighted ones (text/vnd.substream.weighted "key weight" lines,
// application/vnd.substream.witem 16-byte key+float64 records). Streams
// backed by a "varopt" stat answer Horvitz–Thompson subset sums over an
// IPv4 CIDR prefix of the key's low 32 bits: agents at
// GET /v1/streams/{name}/subsetsum?prefix=10.0.0.0/8[&scope=window],
// collectors fleet-wide at GET /v1/subsetsum?stream=...&prefix=...
// (see internal/server).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"substream/internal/estimator"
	"substream/internal/obs"
	"substream/internal/server"
)

// options carries every CLI flag; tests drive run with a literal (zero
// values mean the corresponding config defaults, same as omitting the
// flag — except the disable sentinels, which need the explicit
// negatives documented on each flag).
type options struct {
	role             string
	listen           string
	upstream         string
	id               string
	flush            time.Duration
	flushTimeout     time.Duration
	streams          string
	window           int
	epoch            time.Duration
	maxSummaryAge    time.Duration
	obsSample        int
	shipRetries      int
	shipBackoff      time.Duration
	breakerThreshold int
	snapshotDir      string
	snapshotInterval time.Duration
	logLevel         string
	logFormat        string
	list             bool
}

func main() {
	var opt options
	flag.StringVar(&opt.role, "role", "agent", "daemon role: agent | collector")
	flag.StringVar(&opt.listen, "listen", ":8080", "listen address")
	flag.StringVar(&opt.upstream, "upstream", "", "collector base URL (agent mode)")
	flag.StringVar(&opt.id, "id", "", "agent identity (default: hostname-pid)")
	flag.DurationVar(&opt.flush, "flush", 10*time.Second, "summary shipping interval (agent mode)")
	flag.DurationVar(&opt.flushTimeout, "flush-timeout", 5*time.Second, "bound on the final shutdown flush (agent mode)")
	flag.StringVar(&opt.streams, "streams", "", "stream registry: inline JSON or a JSON file path (agent mode)")
	flag.IntVar(&opt.window, "window", 0, "default window span in epochs for streams that set none (agent mode; 0 = cumulative only)")
	flag.DurationVar(&opt.epoch, "epoch", time.Minute, "default epoch duration for windowed streams that set none (agent mode)")
	flag.DurationVar(&opt.maxSummaryAge, "max-summary-age", 0, "exclude agents whose last summary is older from global estimates (collector mode; 0 = never)")
	flag.IntVar(&opt.obsSample, "obs-sample-every", 0, "sample ingest timing histograms one request in N; counters stay exact (agent mode; 0 = default 64, 1 = every request)")
	flag.IntVar(&opt.shipRetries, "ship-retries", 0, "retries per ship after a transient failure, with capped exponential backoff (agent mode; 0 = default 2, negative = no retries)")
	flag.DurationVar(&opt.shipBackoff, "ship-backoff", 0, "base ship retry backoff, doubled per attempt with jitter and capped at 16x (agent mode; 0 = default 100ms)")
	flag.IntVar(&opt.breakerThreshold, "breaker-threshold", 0, "consecutive ship failures that open the upstream circuit breaker (agent mode; 0 = default 5, negative = breaker disabled)")
	flag.StringVar(&opt.snapshotDir, "snapshot-dir", "", "directory for periodic atomic snapshots of the retained summary table, restored on startup (collector mode; empty = durability off)")
	flag.DurationVar(&opt.snapshotInterval, "snapshot-interval", 0, "interval between collector snapshots (collector mode; 0 = default 30s)")
	flag.StringVar(&opt.logLevel, "log-level", "info", "log verbosity: debug | info | warn | error (debug includes per-request lines)")
	flag.StringVar(&opt.logFormat, "log-format", "text", "log encoding: text | json")
	flag.BoolVar(&opt.list, "list-estimators", false, "list the estimator kinds streams may declare and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "substreamd:", err)
		os.Exit(1)
	}
}

// applyWindowDefaults folds the -window/-epoch fleet defaults into the
// stream registry: -window supplies a span to streams that declare
// none, and -epoch supplies the epoch to any WINDOWED stream (own or
// inherited span) that declares none. Explicit per-stream values always
// win, so a fleet restart with different flags never changes a pinned
// stream's merge identity.
func applyWindowDefaults(streams map[string]server.StreamConfig, window int, epoch time.Duration) {
	for name, cfg := range streams {
		if cfg.Window == 0 && window > 0 {
			cfg.Window = window
		}
		if cfg.Window > 0 && cfg.Epoch == 0 && epoch > 0 {
			cfg.Epoch = server.Duration(epoch)
		}
		streams[name] = cfg
	}
}

// parseStreams reads the -streams spec: inline JSON or a file path.
func parseStreams(spec string) (map[string]server.StreamConfig, error) {
	if spec == "" {
		return nil, nil
	}
	raw := []byte(spec)
	if !strings.HasPrefix(strings.TrimSpace(spec), "{") {
		data, err := os.ReadFile(spec)
		if err != nil {
			return nil, fmt.Errorf("reading -streams file: %w", err)
		}
		raw = data
	}
	var out map[string]server.StreamConfig
	if err := server.DecodeConfig(bytes.NewReader(raw), &out); err != nil {
		return nil, fmt.Errorf("parsing -streams: %w", err)
	}
	return out, nil
}

// newLogger builds the daemon's structured logger from the -log-level
// and -log-format flags. Logs go to stderr; stdout stays reserved for
// the startup address line scripts scrape. Empty values mean the flag
// defaults, so tests driving run with option literals need not set them.
func newLogger(opt options) (*slog.Logger, error) {
	return obs.NewLogger(opt.logLevel, opt.logFormat, os.Stderr)
}

// run starts the daemon and blocks until ctx is canceled, then shuts
// down gracefully. The bound address is printed to w so callers binding
// port 0 can find the server.
func run(ctx context.Context, opt options, w io.Writer) error {
	if opt.list {
		estimator.WriteKinds(w)
		return nil
	}
	logger, err := newLogger(opt)
	if err != nil {
		return err
	}
	switch opt.role {
	case "agent":
		return runAgent(ctx, opt, w, logger)
	case "collector":
		return runCollector(ctx, opt, w, logger)
	default:
		return fmt.Errorf("unknown role %q (want agent or collector)", opt.role)
	}
}

func runCollector(ctx context.Context, opt options, w io.Writer, logger *slog.Logger) error {
	collector := server.NewCollector(server.CollectorConfig{
		MaxSummaryAge:    opt.maxSummaryAge,
		SnapshotDir:      opt.snapshotDir,
		SnapshotInterval: opt.snapshotInterval,
		Logger:           logger,
	})
	srv, err := server.Start(opt.listen, collector.Handler())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "substreamd: collector listening on %s\n", srv.URL())

	// Run drives the periodic durability snapshots; on shutdown the HTTP
	// server drains first (no accept may race the final checkpoint), then
	// Run writes one last snapshot so a planned restart is lossless.
	collectorCtx, stopCollector := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- collector.Run(collectorCtx) }()

	<-ctx.Done()
	shutdownErr := shutdown(srv, w)
	stopCollector()
	runErr := <-runDone
	if shutdownErr != nil {
		return shutdownErr
	}
	return runErr
}

func runAgent(ctx context.Context, opt options, w io.Writer, logger *slog.Logger) error {
	id := opt.id
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "agent"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	streams, err := parseStreams(opt.streams)
	if err != nil {
		return err
	}
	applyWindowDefaults(streams, opt.window, opt.epoch)
	agent := server.NewAgent(server.AgentConfig{
		ID:                   id,
		Upstream:             opt.upstream,
		FlushInterval:        opt.flush,
		ShutdownFlushTimeout: opt.flushTimeout,
		ShipRetries:          opt.shipRetries,
		ShipBackoff:          opt.shipBackoff,
		BreakerThreshold:     opt.breakerThreshold,
		Logger:               logger,
		ObsSampleEvery:       opt.obsSample,
	})
	for name, cfg := range streams {
		if err := agent.CreateStream(name, cfg); err != nil {
			return fmt.Errorf("stream %q: %w", name, err)
		}
	}
	srv, err := server.Start(opt.listen, agent.Handler())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "substreamd: agent %s listening on %s (upstream %q, %d streams)\n",
		id, srv.URL(), opt.upstream, len(streams))

	// Run drives periodic shipping in the background; on shutdown the
	// HTTP server drains first (no ingest may race a closed pipeline),
	// then the agent performs its final flush and pipeline teardown.
	agentCtx, stopAgent := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- agent.Run(agentCtx) }()

	<-ctx.Done()
	shutdownErr := shutdown(srv, w)
	stopAgent()
	runErr := <-runDone
	if shutdownErr != nil {
		return shutdownErr
	}
	return runErr
}

func shutdown(srv *server.Server, w io.Writer) error {
	fmt.Fprintln(w, "substreamd: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

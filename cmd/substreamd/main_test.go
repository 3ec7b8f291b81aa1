package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"substream/internal/server"
)

// syncBuffer is an io.Writer the daemon goroutine and the test can share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var urlRe = regexp.MustCompile(`http://[0-9.:]+`)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL plus a stopper that performs the graceful shutdown and surfaces
// run's error.
func startDaemon(t *testing.T, opt options) (string, func() error) {
	t.Helper()
	opt.listen = "127.0.0.1:0"
	var out syncBuffer
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, opt, &out) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if url := urlRe.FindString(out.String()); url != "" {
			return url, func() error {
				cancel()
				select {
				case err := <-errCh:
					return err
				case <-time.After(10 * time.Second):
					return context.DeadlineExceeded
				}
			}
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon did not announce its address; output: %q", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDaemonSmoke(t *testing.T) {
	// Collector up first.
	collectorURL, stopCollector := startDaemon(t, options{role: "collector"})

	// Agent with one preconfigured stream, shipping to the collector.
	agentURL, stopAgent := startDaemon(t, options{
		role:     "agent",
		id:       "smoke-agent",
		upstream: collectorURL,
		flush:    50 * time.Millisecond,
		streams:  `{"flows": {"stat": "f0", "p": 0.5, "seed": 7, "presampled": true, "shards": 2}}`,
	})

	// Health on both roles.
	for _, url := range []string{collectorURL, agentURL} {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz %s: status %d", url, resp.StatusCode)
		}
	}

	// Ingest a few items and wait for a periodic flush to reach the
	// collector.
	resp, err := http.Post(agentURL+"/v1/streams/flows/ingest", "text/plain",
		strings.NewReader("1\n2\n3\n2\n1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(collectorURL + "/v1/streams/flows/estimate")
		if err == nil && resp.StatusCode == http.StatusOK {
			var got struct {
				Estimates struct {
					Values map[string]float64 `json:"values"`
				} `json:"estimates"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if got.Estimates.Values["f0_sampled"] == 3 {
				break
			}
		} else if resp != nil {
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("collector never served the shipped estimate")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Graceful shutdown, agent first (it performs a final flush).
	if err := stopAgent(); err != nil {
		t.Fatalf("agent shutdown: %v", err)
	}
	if err := stopCollector(); err != nil {
		t.Fatalf("collector shutdown: %v", err)
	}
}

// TestDaemonSnapshotRestart is the -snapshot-dir contract end to end: a
// collector is shut down gracefully (writing its final checkpoint) and a
// fresh collector process pointed at the same directory serves the same
// global estimate immediately, before any agent reships.
func TestDaemonSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	collectorURL, stopCollector := startDaemon(t, options{
		role:             "collector",
		snapshotDir:      dir,
		snapshotInterval: time.Hour, // only the shutdown write matters here
	})
	agentURL, stopAgent := startDaemon(t, options{
		role:        "agent",
		id:          "snap-agent",
		upstream:    collectorURL,
		flush:       50 * time.Millisecond,
		shipRetries: 1,
		streams:     `{"flows": {"stat": "f0", "p": 0.5, "seed": 7, "presampled": true}}`,
	})

	resp, err := http.Post(agentURL+"/v1/streams/flows/ingest", "text/plain",
		strings.NewReader("1\n2\n3\n2\n1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	readEstimate := func(url string) (float64, bool) {
		resp, err := http.Get(url + "/v1/streams/flows/estimate")
		if err != nil || resp.StatusCode != http.StatusOK {
			if resp != nil {
				resp.Body.Close()
			}
			return 0, false
		}
		defer resp.Body.Close()
		var got struct {
			Estimates struct {
				Values map[string]float64 `json:"values"`
			} `json:"estimates"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		return got.Estimates.Values["f0_sampled"], true
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := readEstimate(collectorURL); ok && v == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("collector never served the shipped estimate")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Kill the fleet: the agent first (its state is now upstream), then
	// the collector, whose graceful shutdown checkpoints the table.
	if err := stopAgent(); err != nil {
		t.Fatalf("agent shutdown: %v", err)
	}
	if err := stopCollector(); err != nil {
		t.Fatalf("collector shutdown: %v", err)
	}

	// A fresh collector process on the same snapshot dir answers at once.
	revivedURL, stopRevived := startDaemon(t, options{role: "collector", snapshotDir: dir})
	if v, ok := readEstimate(revivedURL); !ok || v != 3 {
		t.Fatalf("revived collector estimate = %v (served %v), want 3 from the restored snapshot", v, ok)
	}
	if err := stopRevived(); err != nil {
		t.Fatalf("revived collector shutdown: %v", err)
	}
}

// TestDaemonWindowDefaults boots an agent with the -window/-epoch fleet
// defaults and checks the shipped global estimate answers both scopes.
func TestDaemonWindowDefaults(t *testing.T) {
	collectorURL, stopCollector := startDaemon(t, options{role: "collector", maxSummaryAge: time.Hour})
	agentURL, stopAgent := startDaemon(t, options{
		role:     "agent",
		id:       "windowed-agent",
		upstream: collectorURL,
		flush:    50 * time.Millisecond,
		window:   3,
		epoch:    time.Hour, // one epoch spans the whole test
		streams:  `{"flows": {"stat": "f0", "p": 0.5, "seed": 7, "presampled": true}}`,
	})

	resp, err := http.Post(agentURL+"/v1/streams/flows/ingest", "text/plain",
		strings.NewReader("1\n2\n3\n2\n1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(collectorURL + "/v1/streams/flows/estimate")
		if err == nil && resp.StatusCode == http.StatusOK {
			var got struct {
				Estimates struct {
					Values map[string]float64 `json:"values"`
				} `json:"estimates"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if got.Estimates.Values["f0_sampled"] == 3 && got.Estimates.Values["window_f0_sampled"] == 3 {
				break
			}
		} else if resp != nil {
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("collector never served the windowed estimate")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := stopAgent(); err != nil {
		t.Fatalf("agent shutdown: %v", err)
	}
	if err := stopCollector(); err != nil {
		t.Fatalf("collector shutdown: %v", err)
	}
}

// TestApplyWindowDefaults pins the flag/config precedence: explicit
// per-stream values always beat the fleet flags, and -epoch also serves
// streams that declared their own window without an epoch.
func TestApplyWindowDefaults(t *testing.T) {
	streams := map[string]server.StreamConfig{
		"bare":         {Stat: "f0", P: 0.5},
		"own-window":   {Stat: "f0", P: 0.5, Window: 6},
		"own-epoch":    {Stat: "f0", P: 0.5, Window: 6, Epoch: server.Duration(10 * time.Second)},
		"full-explict": {Stat: "f0", P: 0.5, Window: 2, Epoch: server.Duration(time.Hour)},
	}
	applyWindowDefaults(streams, 4, 30*time.Second)
	want := map[string]struct {
		window int
		epoch  server.Duration
	}{
		"bare":         {4, server.Duration(30 * time.Second)},
		"own-window":   {6, server.Duration(30 * time.Second)},
		"own-epoch":    {6, server.Duration(10 * time.Second)},
		"full-explict": {2, server.Duration(time.Hour)},
	}
	for name, w := range want {
		got := streams[name]
		if got.Window != w.window || got.Epoch != w.epoch {
			t.Errorf("%s: window=%d epoch=%v, want window=%d epoch=%v",
				name, got.Window, got.Epoch, w.window, w.epoch)
		}
	}
	// No flags: nothing changes, not even for windowed streams.
	streams2 := map[string]server.StreamConfig{"own-window": {Stat: "f0", P: 0.5, Window: 6}}
	applyWindowDefaults(streams2, 0, 0)
	if got := streams2["own-window"]; got.Window != 6 || got.Epoch != 0 {
		t.Errorf("flagless defaults mutated the config: %+v", got)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out syncBuffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := run(ctx, options{role: "supervisor"}, &out); err == nil {
		t.Fatal("unknown role accepted")
	}
	if err := run(ctx, options{role: "agent", listen: "127.0.0.1:0", streams: "{bad json"}, &out); err == nil {
		t.Fatal("bad streams JSON accepted")
	}
	if err := run(ctx, options{role: "agent", listen: "127.0.0.1:0", streams: "/no/such/file.json"}, &out); err == nil {
		t.Fatal("missing streams file accepted")
	}
}

func TestParseStreamsFile(t *testing.T) {
	path := t.TempDir() + "/streams.json"
	if err := os.WriteFile(path, []byte(`{"a": {"stat": "entropy", "p": 0.1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	streams, err := parseStreams(path)
	if err != nil {
		t.Fatal(err)
	}
	if streams["a"].Stat != "entropy" || streams["a"].P != 0.1 {
		t.Fatalf("parsed %+v", streams["a"])
	}
	// A misspelt field is a startup error that names it, not a stream
	// silently running at the default.
	_, err = parseStreams(`{"a": {"stat": "fk", "p": 0.05, "epsilon": 0.05}}`)
	if err == nil || !strings.Contains(err.Error(), "-streams") || !strings.Contains(err.Error(), `"epsilon"`) {
		t.Fatalf("misspelt field: err %v, want a -streams error naming \"epsilon\"", err)
	}
}

// TestStreamsRefuseComponentStats pins the -streams door to the
// registry's stats: a stream declaring a component a stat nests is a
// startup error listing the nine stats, and one declaring "window" says
// how a window is declared instead.
func TestStreamsRefuseComponentStats(t *testing.T) {
	stats := "all | entropy | f0 | fk | gee | hh1 | hh2 | quantile | varopt"
	start := func(stat string) error {
		return run(context.Background(), options{role: "agent", listen: "127.0.0.1:0",
			streams: fmt.Sprintf(`{"s": {"stat": %q, "p": 0.05}}`, stat)}, io.Discard)
	}
	for _, stat := range []string{"countmin", "countsketch", "kmv", "hll", "spacesaving", "misragries", "topk", "exactcounter", "levelset", "iw"} {
		if err := start(stat); err == nil || !strings.Contains(err.Error(), stats) {
			t.Errorf("stat %s: err %v, want a startup error listing %s", stat, err, stats)
		}
	}
	if err := start("window"); err == nil || !strings.Contains(err.Error(), "window and epoch fields") || !strings.Contains(err.Error(), stats) {
		t.Errorf("stat window: err %v, want a startup error naming the window and epoch fields", err)
	}
}

func TestListEstimators(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), options{list: true}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"fk", "0x20", "f0", "all", "window", "0x30", "quantile", "0x40"} {
		if !strings.Contains(got, want) {
			t.Fatalf("-list-estimators output missing %q:\n%s", want, got)
		}
	}
	quantileRow := false
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "window") && !strings.Contains(line, "wrapper") {
			t.Fatalf("window row unmarked: %q", line)
		}
		if strings.HasPrefix(line, "countsketch") || strings.HasPrefix(line, "iw") {
			t.Fatalf("component listed as a kind: %q", line)
		}
		// Quantile streams are declarable (stat MODE), unlike the wrapper.
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

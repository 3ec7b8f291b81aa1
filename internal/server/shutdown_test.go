package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"substream/internal/stream"
)

// TestShutdownFlushTimeoutBoundsSlowCollector proves a hung collector
// cannot stall an agent's graceful shutdown past the configured bound:
// the final flush is abandoned (with an error) once
// ShutdownFlushTimeout elapses.
func TestShutdownFlushTimeoutBoundsSlowCollector(t *testing.T) {
	// A collector that never answers: it parks every /v1/collect until
	// the client gives up (or the test ends — Close waits for handlers,
	// so release before it runs).
	release := make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer stuck.Close()
	defer close(release)

	agent := NewAgent(AgentConfig{
		ID:                   "doomed",
		Upstream:             stuck.URL,
		FlushInterval:        time.Hour, // only the shutdown flush fires
		ShutdownFlushTimeout: 100 * time.Millisecond,
	})
	if err := agent.CreateStream("s", StreamConfig{Stat: "f0", P: 0.5, Seed: 1, Presampled: true, Shards: 1}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- agent.Run(ctx) }()
	cancel()

	start := time.Now()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("final flush against a hung collector reported success")
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("shutdown took %v despite a 100ms flush bound", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung on the stuck collector")
	}
}

// TestShutdownFlushTimeoutDefault pins the default so the config change
// stays behavior-compatible.
func TestShutdownFlushTimeoutDefault(t *testing.T) {
	a := NewAgent(AgentConfig{ID: "d"})
	defer a.Close()
	if a.cfg.ShutdownFlushTimeout != 5*time.Second {
		t.Fatalf("default ShutdownFlushTimeout = %v, want 5s", a.cfg.ShutdownFlushTimeout)
	}
}

// TestStalledBodyReleasesItsHandler: a client that sends its headers and
// half a body and then goes quiet used to pin an ingest handler — and the
// pooled scratch buffer and chunk it decodes through — for as long as it
// kept the connection open. The server Start builds gives a request a
// whole-read deadline; when it passes, the body read fails, the handler
// answers 400 and returns, the records that did arrive are applied (which
// is when their chunk goes back to its pool) and ingest_errors counts the
// request. The test serves with that server's settings and a deadline
// short enough to wait out.
func TestStalledBodyReleasesItsHandler(t *testing.T) {
	agent := NewAgent(AgentConfig{ID: "stall"})
	defer agent.Close()
	if err := agent.CreateStream("s", StreamConfig{Stat: "f0", P: 1, Presampled: true, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(agent.Handler())
	if srv.ReadTimeout != requestReadTimeout || srv.ReadTimeout <= srv.ReadHeaderTimeout {
		t.Fatalf("Start serves with a %v whole-request deadline and %v for the headers", srv.ReadTimeout, srv.ReadHeaderTimeout)
	}
	srv.ReadTimeout = 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const sent = 100 // of the 200 records the headers announce
	fmt.Fprintf(conn, "POST /v1/streams/s/ingest HTTP/1.1\r\nHost: x\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		ContentTypeBinary, 2*sent*stream.RecordSize)
	if _, err := conn.Write(binBody(sampledZipf(2*sent, 0.5, 1)[:sent])); err != nil {
		t.Fatal(err)
	}
	// ... and nothing more. The answer arrives once the deadline has passed.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer to a stalled body: the handler is still reading: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stalled body answered %d, want 400", resp.StatusCode)
	}
	m := agent.Metrics()
	if reqs, errs := m.IngestRequests.Value(), m.IngestErrors.With(causeDecode).Value(); reqs != 1 || errs != 1 {
		t.Fatalf("ingest_requests=%d ingest_errors{decode}=%d, want 1 and 1", reqs, errs)
	}
	st, _ := agent.lookup("s")
	if _, fed, kept, err := st.run.answer(m, query{}); err != nil || fed != sent || kept != sent {
		t.Fatalf("after the stall the stream holds fed=%d kept=%d (%v), want the %d records that arrived", fed, kept, err, sent)
	}
}

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxIngestBytes bounds one ingest request body (64 MiB ≈ 8M binary
// items), keeping a single request from exhausting memory.
const maxIngestBytes = 64 << 20

// maxSummaryBytes bounds one shipped summary envelope. Wire format v3
// packs about five times more state per byte than v2 did under a 256 MiB
// cap, so 64 MiB keeps the largest state one honest body decodes to where
// it was. A counter table's zero runs decode to far more than the bytes
// that describe them, so tables have a decode budget of their own (doc.go,
// "Wire format"); the bound on what the collector retains over all is the
// memory budget planned at Collector.admit (ROADMAP, "bounded memory and
// bounded blocking").
const maxSummaryBytes = 64 << 20

// discardLogger is the default when a role is built without a Logger:
// structured logging is opt-in, matching the old nil-Logf behavior.
func discardLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

// reqSeq numbers requests across all daemon instances in the process;
// the id is only a correlation handle, so a shared sequence is fine
// (and makes ids unique across an in-process agent+collector pair).
var reqSeq atomic.Uint64

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// withRequestLog wraps a handler with request-scoped structured
// logging: every request gets a process-unique id (echoed in the
// X-Request-Id response header so operators can grep a failing call
// back to the log), and completion is logged at Debug with method,
// path, status, and duration. The Enabled check comes first so a
// disabled Debug level pays neither the attr boxing nor the status
// capture — the ingest hot path sees only the id header.
func withRequestLog(logger *slog.Logger, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := reqSeq.Add(1)
		w.Header().Set("X-Request-Id", strconv.FormatUint(id, 10))
		if !logger.Enabled(r.Context(), slog.LevelDebug) {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		logger.Debug("http request",
			"req_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration", time.Since(start),
		)
	})
}

// Server wraps an http.Server with explicit startup (so callers learn
// the bound address) and graceful shutdown — the skeleton cmd/substreamd
// wires signals into.
type Server struct {
	http *http.Server
	ln   net.Listener
	done chan error

	shutdownOnce sync.Once
	shutdownErr  error
}

// Read deadlines of every connection Start serves: readHeaderTimeout for
// a request's headers, requestReadTimeout for all of it, body included, so
// a sender that stalls mid-body fails the read and the handler — with the
// pooled buffers it decodes through — returns instead of waiting forever.
// Two minutes carries the largest body either role accepts (64 MiB) at
// 5 Mbit/s, and closes an idle keep-alive connection; net/http arms both
// when a request starts, so a request pays nothing it did not before.
const (
	readHeaderTimeout  = 10 * time.Second
	requestReadTimeout = 2 * time.Minute
)

// newHTTPServer is the http.Server Start serves h with.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: requestReadTimeout}
}

// Start listens on addr (e.g. ":8080" or "127.0.0.1:0") and serves h in
// the background.
func Start(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		http: newHTTPServer(h),
		ln:   ln,
		done: make(chan error, 1),
	}
	go func() {
		err := s.http.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		s.done <- err
	}()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the base URL of the server.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Shutdown stops accepting connections, drains in-flight requests, and
// waits for the serve loop to exit. It is idempotent: repeat calls
// return the first call's result instead of blocking.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		if err := s.http.Shutdown(ctx); err != nil {
			s.shutdownErr = err
			return
		}
		s.shutdownErr = <-s.done
	})
	return s.shutdownErr
}

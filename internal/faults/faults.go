// Package faults is the deterministic fault-injection harness the
// chaos tests drive the daemon through: a seeded plan of network
// failure modes (drops, delays, 5xx rejections, connection resets,
// truncated responses) applied by an http.RoundTripper that an agent
// takes as its client's transport, or by a reverse proxy in front of a
// collector, so "collector dead for three ticks" and "30% of shipments
// lost" are reproducible test inputs instead of flaky sleeps.
//
// Determinism is the point. A Plan carries a seed; every request draws
// its fate from one mutex-guarded generator in arrival order, so a
// single-goroutine driver replays the identical fault sequence on
// every run, and the convergence bounds the e2e tests assert ("within
// k flush ticks") are real guarantees of the recovery logic, not
// timing accidents.
//
// The injected failure modes are chosen to cover the distinct ways a
// shipment can half-happen:
//
//   - drop: the request never reaches the upstream (connect failure).
//   - delay: the request is stalled before forwarding (latency, not loss).
//   - err5xx: the upstream answers 503 without seeing the request — a
//     dead or overloaded collector behind a live load balancer.
//   - reset: the upstream PROCESSES the request but the response is
//     lost (connection reset after send) — the ack-loss case that
//     makes non-idempotent shipping double-count; cumulative
//     latest-wins shipping must shrug it off.
//   - truncate: the response arrives cut short (mid-body disconnect).
package faults

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"substream/internal/rng"
)

// Plan is one seeded chaos schedule: independent probabilities for each
// failure mode, drawn per request in arrival order from a generator
// seeded with Seed. Probabilities are checked in declaration order
// (Drop, Err5xx, Reset, Truncate — Delay is drawn independently and
// composes with any of them), and at most one terminal fault applies
// per request.
type Plan struct {
	// Seed seeds the per-request fault coins; equal seeds replay equal
	// fault sequences for equal request orders.
	Seed uint64 `json:"seed"`
	// Drop is the probability a request never reaches the upstream.
	Drop float64 `json:"drop,omitempty"`
	// Delay is the probability a request is stalled before forwarding.
	Delay float64 `json:"delay,omitempty"`
	// MaxDelay bounds the injected stall; each delayed request sleeps a
	// uniform duration in (0, MaxDelay]. Required when Delay > 0.
	MaxDelay time.Duration `json:"max_delay,omitempty"`
	// Err5xx is the probability the upstream answers 503 without
	// processing the request.
	Err5xx float64 `json:"err_5xx,omitempty"`
	// Reset is the probability the upstream processes the request but
	// the client sees a connection error instead of the response.
	Reset float64 `json:"reset,omitempty"`
	// Truncate is the probability the response body is cut to half its
	// length mid-flight.
	Truncate float64 `json:"truncate,omitempty"`
}

// Validate rejects plans the transport could not execute: probabilities
// outside [0, 1] and delayed plans without a positive bound.
func (p Plan) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"drop", p.Drop}, {"delay", p.Delay}, {"err_5xx", p.Err5xx},
		{"reset", p.Reset}, {"truncate", p.Truncate},
	} {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("faults: %s probability must be in [0, 1], got %v", f.name, f.v)
		}
	}
	if p.Delay > 0 && p.MaxDelay <= 0 {
		return fmt.Errorf("faults: delay probability %v needs a positive max_delay", p.Delay)
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("faults: max_delay must be >= 0, got %v", p.MaxDelay)
	}
	return nil
}

// Stats counts what the transport actually did — the test-side ledger
// for asserting a chaos run exercised the modes it claimed to.
type Stats struct {
	Requests  uint64
	Dropped   uint64
	Delayed   uint64
	Rejected  uint64 // synthesized 5xx
	Reset     uint64 // forwarded, response discarded
	Truncated uint64
	Forwarded uint64 // reached the upstream (including reset/truncated)
}

// Transport is a chaos http.RoundTripper: it applies one seeded Plan in
// request-arrival order in front of a real transport. Safe for
// concurrent use; concurrent callers serialize on the fault coins, so
// single-goroutine drivers are fully deterministic.
type Transport struct {
	next http.RoundTripper
	plan Plan

	mu  sync.Mutex
	rng *rng.Xoshiro256

	down atomic.Bool

	requests, dropped, delayed, rejected, resets, truncated, forwarded atomic.Uint64
}

// errInjected is the connection-level error the transport synthesizes
// for drops, outages, and resets.
type errInjected struct{ mode string }

func (e errInjected) Error() string { return "faults: injected " + e.mode }

// NewTransport builds a chaos transport over next (nil means
// http.DefaultTransport). It panics on an invalid plan: transports are
// built in test and harness setup, where a bad plan is a programming
// error that must not ship.
func NewTransport(plan Plan, next http.RoundTripper) *Transport {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	if next == nil {
		next = http.DefaultTransport
	}
	return &Transport{next: next, plan: plan, rng: rng.New(plan.Seed)}
}

// SetDown forces a total outage: while down, every request fails with a
// connection error without reaching the upstream and without consuming
// fault coins — so scripted kill windows ("collector dead for k flush
// ticks") do not shift the seeded fault sequence around them.
func (t *Transport) SetDown(down bool) { t.down.Store(down) }

// decision is one request's drawn fate.
type decision struct {
	drop, reject, reset, truncate bool
	delay                         time.Duration
}

// decide draws one request's fate from the seeded generator. The draw
// order is fixed (delay coin, then the terminal-fault coin) so a plan
// with some probabilities zeroed still consumes the same coin count per
// request and stays comparable across configurations of one seed.
func (t *Transport) decide() decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d decision
	if t.plan.Delay > 0 && t.rng.Float64() < t.plan.Delay {
		d.delay = time.Duration(t.rng.Float64Open() * float64(t.plan.MaxDelay))
		if d.delay <= 0 {
			d.delay = 1
		}
	} else if t.plan.Delay > 0 {
		// Burn the magnitude coin so delayed and undelayed requests
		// consume equally many draws.
		t.rng.Float64Open()
	}
	// One uniform coin picks among the terminal faults: the modes are
	// mutually exclusive by construction, so their probabilities
	// partition [0, 1).
	u := t.rng.Float64()
	switch {
	case u < t.plan.Drop:
		d.drop = true
	case u < t.plan.Drop+t.plan.Err5xx:
		d.reject = true
	case u < t.plan.Drop+t.plan.Err5xx+t.plan.Reset:
		d.reset = true
	case u < t.plan.Drop+t.plan.Err5xx+t.plan.Reset+t.plan.Truncate:
		d.truncate = true
	}
	return d
}

// RoundTrip applies the plan to one request.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	if t.down.Load() {
		t.dropped.Add(1)
		return nil, errInjected{mode: "outage"}
	}
	d := t.decide()
	if d.delay > 0 {
		t.delayed.Add(1)
		timer := time.NewTimer(d.delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	switch {
	case d.drop:
		t.dropped.Add(1)
		return nil, errInjected{mode: "drop"}
	case d.reject:
		t.rejected.Add(1)
		return synthesize503(req), nil
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	t.forwarded.Add(1)
	switch {
	case d.reset:
		// The upstream processed the request; the client never learns.
		// This is the ack-loss case idempotent shipping exists for.
		t.resets.Add(1)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errInjected{mode: "reset"}
	case d.truncate:
		t.truncated.Add(1)
		resp.Body = &truncatingBody{rc: resp.Body, remaining: truncateAt(resp.ContentLength)}
		// The advertised length no longer matches what the body will
		// deliver; -1 forces readers to hit the cut instead of their
		// own length check.
		resp.ContentLength = -1
		return resp, nil
	}
	return resp, nil
}

// Stats snapshots the transport's fault ledger.
func (t *Transport) Stats() Stats {
	return Stats{
		Requests:  t.requests.Load(),
		Dropped:   t.dropped.Load(),
		Delayed:   t.delayed.Load(),
		Rejected:  t.rejected.Load(),
		Reset:     t.resets.Load(),
		Truncated: t.truncated.Load(),
		Forwarded: t.forwarded.Load(),
	}
}

// synthesize503 builds the dead-collector response without forwarding.
func synthesize503(req *http.Request) *http.Response {
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"text/plain"}},
		Body:          io.NopCloser(strings.NewReader("faults: injected 503\n")),
		ContentLength: -1,
		Request:       req,
	}
}

// truncateAt picks where a truncated response body is cut: half the
// advertised length, or a small fixed prefix when the length is
// unknown — either way strictly before the end of any non-trivial body.
func truncateAt(contentLength int64) int64 {
	if contentLength > 1 {
		return contentLength / 2
	}
	return 8
}

// truncatingBody delivers the first remaining bytes of the wrapped body
// and then fails with an injected error — a mid-body disconnect, not a
// clean EOF, so clients treat it as the transport fault it models.
type truncatingBody struct {
	rc        io.ReadCloser
	remaining int64
}

func (b *truncatingBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, errInjected{mode: "truncate"}
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF && b.remaining > 0 {
		// The true body ended before the cut; deliver the real EOF.
		return n, err
	}
	if b.remaining <= 0 && err == nil {
		err = errInjected{mode: "truncate"}
	}
	return n, err
}

func (b *truncatingBody) Close() error { return b.rc.Close() }

// NewProxy returns a chaos reverse proxy: an http.Handler that forwards
// to target through a Transport built from plan. The transport is
// returned too, so harnesses can script outages and read the fault
// ledger. Use it to wrap a collector when the client under test cannot
// be given a custom http.Client.
func NewProxy(target *url.URL, plan Plan) (http.Handler, *Transport) {
	t := NewTransport(plan, nil)
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.Transport = t
	proxy.ErrorLog = nil // injected faults are expected; keep stderr quiet
	proxy.ErrorHandler = func(w http.ResponseWriter, _ *http.Request, _ error) {
		// Injected connection errors surface as 502 — what a real load
		// balancer in front of a dead collector would answer.
		w.WriteHeader(http.StatusBadGateway)
	}
	return proxy, t
}

package faults

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// okUpstream is a live upstream that counts the requests it actually
// processes — the ground truth a chaos run's Stats are checked against.
func okUpstream(t *testing.T, body string) (*httptest.Server, *atomic.Uint64) {
	t.Helper()
	var processed atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		processed.Add(1)
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts, &processed
}

func get(t *testing.T, client *http.Client, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return client.Do(req)
}

// TestPlanValidate covers the rejection table.
func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Plan
		ok   bool
	}{
		{"zero", Plan{}, true},
		{"full", Plan{Drop: 1, Delay: 1, MaxDelay: time.Millisecond, Err5xx: 1, Reset: 1, Truncate: 1}, true},
		{"negative", Plan{Drop: -0.1}, false},
		{"above one", Plan{Truncate: 1.5}, false},
		{"nan", Plan{Reset: math.NaN()}, false},
		{"delay without bound", Plan{Delay: 0.5}, false},
		{"negative max delay", Plan{MaxDelay: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestTransportDeterministic replays one seed twice against a live
// upstream and checks the two runs draw the identical fault sequence.
func TestTransportDeterministic(t *testing.T) {
	ts, _ := okUpstream(t, "ok")
	plan := Plan{Seed: 99, Drop: 0.4, Err5xx: 0.2}
	run := func() []bool {
		tr := NewTransport(plan, nil)
		client := &http.Client{Transport: tr}
		var fates []bool
		for i := 0; i < 64; i++ {
			resp, err := get(t, client, ts.URL)
			ok := err == nil && resp.StatusCode == http.StatusOK
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			fates = append(fates, ok)
		}
		return fates
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: fate diverged across identically seeded runs", i)
		}
	}
	// A 40%+20% fault plan over 64 requests leaves both outcomes
	// represented — the sequence is mixed, not degenerate.
	succ := 0
	for _, ok := range a {
		if ok {
			succ++
		}
	}
	if succ == 0 || succ == len(a) {
		t.Fatalf("degenerate fault sequence: %d/%d successes", succ, len(a))
	}
}

// TestTransportModes drives each failure mode at probability 1 and
// checks its observable contract: whether the upstream processed the
// request, and what the client saw.
func TestTransportModes(t *testing.T) {
	body := strings.Repeat("x", 4096)

	t.Run("drop never reaches upstream", func(t *testing.T) {
		ts, processed := okUpstream(t, body)
		tr := NewTransport(Plan{Drop: 1}, nil)
		if _, err := get(t, &http.Client{Transport: tr}, ts.URL); err == nil {
			t.Fatal("dropped request returned a response")
		}
		if processed.Load() != 0 {
			t.Fatal("dropped request reached the upstream")
		}
		if s := tr.Stats(); s.Dropped != 1 || s.Forwarded != 0 {
			t.Fatalf("stats: %+v", s)
		}
	})

	t.Run("err5xx never reaches upstream", func(t *testing.T) {
		ts, processed := okUpstream(t, body)
		tr := NewTransport(Plan{Err5xx: 1}, nil)
		resp, err := get(t, &http.Client{Transport: tr}, ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
		if processed.Load() != 0 {
			t.Fatal("rejected request reached the upstream")
		}
	})

	t.Run("reset processes but fails the client", func(t *testing.T) {
		ts, processed := okUpstream(t, body)
		tr := NewTransport(Plan{Reset: 1}, nil)
		if _, err := get(t, &http.Client{Transport: tr}, ts.URL); err == nil {
			t.Fatal("reset request returned a response")
		}
		if processed.Load() != 1 {
			t.Fatalf("reset request processed %d times, want 1 (the ack-loss case)", processed.Load())
		}
	})

	t.Run("truncate cuts the body mid-read", func(t *testing.T) {
		ts, processed := okUpstream(t, body)
		tr := NewTransport(Plan{Truncate: 1}, nil)
		resp, err := get(t, &http.Client{Transport: tr}, ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err == nil {
			t.Fatal("truncated body read to a clean EOF")
		}
		if len(data) >= len(body) {
			t.Fatalf("truncated body delivered %d of %d bytes", len(data), len(body))
		}
		if processed.Load() != 1 {
			t.Fatal("truncated request did not reach the upstream")
		}
	})

	t.Run("delay stalls but succeeds", func(t *testing.T) {
		ts, processed := okUpstream(t, body)
		tr := NewTransport(Plan{Delay: 1, MaxDelay: 2 * time.Millisecond}, nil)
		resp, err := get(t, &http.Client{Transport: tr}, ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if processed.Load() != 1 || tr.Stats().Delayed != 1 {
			t.Fatalf("delayed request: processed=%d stats=%+v", processed.Load(), tr.Stats())
		}
	})
}

// TestTransportOutage checks SetDown forces total loss and that
// reviving restores the seeded sequence exactly where it paused: coins
// are not consumed during the outage.
func TestTransportOutage(t *testing.T) {
	ts, processed := okUpstream(t, "ok")
	plan := Plan{Seed: 3, Drop: 0.5}

	// Reference: the fates of requests 0..19 with no outage.
	ref := NewTransport(plan, nil)
	client := &http.Client{Transport: ref}
	var want []bool
	for i := 0; i < 20; i++ {
		resp, err := get(t, client, ts.URL)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		want = append(want, err == nil)
	}

	// Same seed, with an outage injected between coins 10 and 11.
	tr := NewTransport(plan, nil)
	client = &http.Client{Transport: tr}
	var got []bool
	for i := 0; i < 20; i++ {
		if i == 10 {
			tr.SetDown(true)
			before := processed.Load()
			for j := 0; j < 5; j++ {
				if _, err := get(t, client, ts.URL); err == nil {
					t.Fatal("request during outage succeeded")
				}
			}
			if processed.Load() != before {
				t.Fatal("a request reached the upstream during the outage")
			}
			tr.SetDown(false)
		}
		resp, err := get(t, client, ts.URL)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		got = append(got, err == nil)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d: outage shifted the seeded fault sequence", i)
		}
	}
	if processed.Load() == 0 {
		t.Fatal("no request reached the upstream")
	}
}

// TestProxy drives the reverse-proxy form: injected connection faults
// surface as 502, scripted outages apply, and clean requests pass.
func TestProxy(t *testing.T) {
	ts, _ := okUpstream(t, "hello")
	target, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	handler, tr := NewProxy(target, Plan{Seed: 1})
	ps := httptest.NewServer(handler)
	defer ps.Close()

	resp, err := http.Get(ps.URL)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(data) != "hello" {
		t.Fatalf("clean proxy request: status %d body %q", resp.StatusCode, data)
	}

	tr.SetDown(true)
	resp, err = http.Get(ps.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("outage through proxy: status %d, want 502", resp.StatusCode)
	}
}

// TestInjectedErrorsAreErrors pins that injected failures are ordinary
// errors a retry loop can match on — not panics, not typed surprises.
func TestInjectedErrorsAreErrors(t *testing.T) {
	var err error = errInjected{mode: "drop"}
	if !strings.Contains(err.Error(), "injected drop") {
		t.Fatalf("error text: %q", err)
	}
	var inj errInjected
	if !errors.As(err, &inj) {
		t.Fatal("errors.As failed on errInjected")
	}
}

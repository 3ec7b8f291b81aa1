package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests", "total requests")
	if c.Value() != 0 {
		t.Fatalf("fresh counter = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	// Re-registering the same name returns the same instrument.
	if r.Counter("requests", "total requests") != c {
		t.Fatal("re-registration returned a new counter")
	}
}

// TestCounterConcurrentCells hammers one counter from many goroutines
// and checks the cell-summed total is exact — the sharded-cell
// correctness test the CI -race run also validates for data races.
func TestCounterConcurrentCells(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot", "hot-path counter")
	const (
		workers = 16
		perG    = 10000
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perG {
		t.Fatalf("lost updates: %d != %d", got, workers*perG)
	}
}

// TestCounterVecConcurrent races child creation against increments on
// existing children.
func TestCounterVecConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("errors", "errors by cause", "cause")
	causes := []string{"decode", "network", "status", "config"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.With(causes[(g+i)%len(causes)]).Inc()
			}
		}(g)
	}
	wg.Wait()
	var sum uint64
	for _, cause := range causes {
		sum += v.With(cause).Value()
	}
	if sum != 8000 {
		t.Fatalf("children sum to %d, want 8000", sum)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth")
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	r.SetFunc("uptime", "seconds up", KindGauge, func(emit func(float64, ...Label)) { emit(7) })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "uptime 7\n") {
		t.Fatalf("gauge func missing:\n%s", sb.String())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "request latency")
	// 1..10000 microseconds: p50 ≈ 5000e-6, p99 ≈ 9900e-6.
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i) * 1e-6)
	}
	count, _, qs := h.snapshot()
	if count != 10000 {
		t.Fatalf("count = %d", count)
	}
	var p50, p99 float64
	for _, q := range qs {
		switch q.Quantile {
		case 0.50:
			p50 = q.Value
		case 0.99:
			p99 = q.Value
		}
	}
	if p50 < 4800e-6 || p50 > 5200e-6 {
		t.Fatalf("p50 = %v, want ≈ 5000e-6", p50)
	}
	if p99 < 9850e-6 || p99 > 9950e-6 {
		t.Fatalf("p99 = %v, want ≈ 9900e-6", p99)
	}
}

// TestGoldenPrometheusFormat pins the exposition format end to end:
// HELP/TYPE lines, deterministic series order, label escaping, summary
// rendering.
func TestGoldenPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ingest_items", "items ingested")
	c.Add(12)
	v := r.CounterVec("ingest_errors", "ingest errors by cause", "cause")
	v.With("decode").Add(2)
	v.With("bad\\quote\"and\nnewline").Inc()
	g := r.Gauge("queue_len", "current queue length")
	g.Set(1.5)
	h := r.Histogram("flush_seconds", "flush latency")
	h.Observe(0.25)
	r.SetFunc("agent_age_seconds", "per-agent staleness", KindGauge, func(emit func(float64, ...Label)) {
		emit(9, Label{Key: "agent", Value: "a1"}, Label{Key: "stream", Value: "flows"})
	})
	addGoldenShapes(r)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ingest_items items ingested
# TYPE ingest_items counter
ingest_items 12
# HELP ingest_errors ingest errors by cause
# TYPE ingest_errors counter
ingest_errors{cause="bad\\quote\"and\nnewline"} 1
ingest_errors{cause="decode"} 2
# HELP queue_len current queue length
# TYPE queue_len gauge
queue_len 1.5
# HELP flush_seconds flush latency
# TYPE flush_seconds summary
flush_seconds{quantile="0.5"} 0.25
flush_seconds{quantile="0.9"} 0.25
flush_seconds{quantile="0.99"} 0.25
flush_seconds{quantile="0.999"} 0.25
flush_seconds_sum 0.25
flush_seconds_count 1
# HELP agent_age_seconds per-agent staleness
# TYPE agent_age_seconds gauge
agent_age_seconds{agent="a1",stream="flows"} 9
# HELP ship_errors ship errors by cause
# TYPE ship_errors counter
# HELP breaker_state breaker \\ "state"\nsecond line
# TYPE breaker_state gauge
breaker_state 1e+21
# HELP stream_batches batches, by stream
# TYPE stream_batches counter
stream_batches{stream="b\\q\"n\n"} 7
stream_batches{stream="a"} 0.5
`
	if sb.String() != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// addGoldenShapes registers the family shapes both goldens pin beyond
// the basic ones: a labelled counter family with no series yet, an
// unlabelled dynamic family whose help needs escaping and whose value
// has an exponent, and a labelled dynamic counter family, which (unlike
// a CounterVec) has no bare-name sum in the JSON view.
func addGoldenShapes(r *Registry) {
	r.CounterVec("ship_errors", "ship errors by cause", "cause")
	r.SetFunc("breaker_state", "breaker \\ \"state\"\nsecond line", KindGauge, func(emit func(float64, ...Label)) {
		emit(1e21)
	})
	r.SetFunc("stream_batches", "batches, by stream", KindCounter, func(emit func(float64, ...Label)) {
		emit(7, Label{Key: "stream", Value: "b\\q\"n\n"})
		emit(0.5, Label{Key: "stream", Value: "a"})
	})
}

// TestGoldenJSONPanel pins the JSON view end to end: key rendering and
// escaping, the bare-name sum of labelled counter families, the nested
// histogram object, dynamic series and value formatting.
func TestGoldenJSONPanel(t *testing.T) {
	r := NewRegistry()
	r.Counter("ingest_items", "items ingested").Add(12)
	v := r.CounterVec("ingest_errors", "ingest errors by cause", "cause")
	v.With("decode").Add(2)
	v.With("bad\\quote\"and\nnewline").Inc()
	r.Gauge("queue_len", "current queue length").Set(1.5)
	r.Histogram("flush_seconds", "flush latency").Observe(0.25)
	r.SetFunc("agent_age_seconds", "per-agent staleness", KindGauge, func(emit func(float64, ...Label)) {
		emit(9, Label{Key: "agent", Value: "a1"}, Label{Key: "stream", Value: "flows"})
	})
	addGoldenShapes(r)

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{
  "agent_age_seconds{agent=\"a1\",stream=\"flows\"}": 9,
  "breaker_state": 1e+21,
  "flush_seconds": {
    "count": 1,
    "p50": 0.25,
    "p90": 0.25,
    "p99": 0.25,
    "p999": 0.25,
    "sum": 0.25
  },
  "ingest_errors": 3,
  "ingest_errors{cause=\"bad\\\\quote\\\"and\\nnewline\"}": 1,
  "ingest_errors{cause=\"decode\"}": 2,
  "ingest_items": 12,
  "queue_len": 1.5,
  "ship_errors": 0,
  "stream_batches{stream=\"a\"}": 0.5,
  "stream_batches{stream=\"b\\\\q\\\"n\\n\"}": 7
}
`
	if sb.String() != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestJSONViewCompat(t *testing.T) {
	r := NewRegistry()
	r.Counter("ingest_items", "items").Add(3)
	v := r.CounterVec("ingest_errors", "errors", "cause")
	v.With("decode").Add(2)
	v.With("network").Add(1)
	r.Histogram("flush_seconds", "flush").Observe(0.5)

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatal(err)
	}
	if out["ingest_items"] != 3.0 {
		t.Fatalf("ingest_items = %v", out["ingest_items"])
	}
	// The labeled family surfaces both its children and the flat sum.
	if out["ingest_errors"] != 3.0 {
		t.Fatalf("flat family sum = %v, want 3", out["ingest_errors"])
	}
	if out[`ingest_errors{cause="decode"}`] != 2.0 {
		t.Fatalf("labeled child missing: %v", out)
	}
	hist, ok := out["flush_seconds"].(map[string]any)
	if !ok || hist["count"] != 1.0 || hist["p99"] != 0.5 {
		t.Fatalf("histogram view: %v", out["flush_seconds"])
	}
}

func TestTraceRingEvictionAndOrder(t *testing.T) {
	r := NewTraceRing(4)
	for i := 1; i <= 6; i++ {
		r.Record(Span{TraceID: uint64(i), Stage: "fold", Start: time.Now()})
	}
	if r.Total() != 6 {
		t.Fatalf("total = %d", r.Total())
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d spans", len(got))
	}
	// Newest first: 6, 5, 4, 3.
	for i, want := range []uint64{6, 5, 4, 3} {
		if got[i].TraceID != want {
			t.Fatalf("span[%d] = %d, want %d (%v)", i, got[i].TraceID, want, got)
		}
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "a counter")
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.Gauge("x", "now a gauge")
}

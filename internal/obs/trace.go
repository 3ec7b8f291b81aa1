package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Span is one recorded hop of a summary's flush→fold journey. The agent
// stamps every shipped summary with a TraceID and its flush wall time;
// each side then records its half of the journey:
//
//   - the agent records a "ship" span per shipped summary (snapshot +
//     marshal time and, within it, the quiesce wait and the replica fold;
//     POST round trip, payload bytes);
//   - the collector records a "fold" span per received summary (decode
//     time, trial-fold time, and — when the envelope carries FlushedAt —
//     the end-to-end flush→fold latency).
//
// E2ENs subtracts wall clocks of two processes; on one host (or
// NTP-synced fleet) it is the propagation latency, across unsynced
// hosts it is only as good as the clocks.
type Span struct {
	TraceID uint64 `json:"trace_id"`
	Stage   string `json:"stage"` // "ship" | "fold"
	Stream  string `json:"stream"`
	Agent   string `json:"agent"`
	// Start is when this side began processing (flush start on the
	// agent, request arrival on the collector).
	Start time.Time `json:"start"`
	Bytes int       `json:"bytes,omitempty"`

	SnapshotNs int64 `json:"snapshot_ns,omitempty"` // agent: Sync+merge+marshal, the sum the two below are parts of
	SyncNs     int64 `json:"sync_ns,omitempty"`     // agent: pipeline quiesce — queued batches applied, replicas settled
	PostNs     int64 `json:"post_ns,omitempty"`     // agent: upstream POST round trip
	DecodeNs   int64 `json:"decode_ns,omitempty"`   // collector: envelope+payload decode
	FoldNs     int64 `json:"fold_ns,omitempty"`     // agent: fold of the shard replicas; collector: trial fold
	E2ENs      int64 `json:"e2e_ns,omitempty"`      // collector: arrival − agent flush stamp

	Err string `json:"err,omitempty"`
}

// TraceRing is a fixed-size ring of the most recent spans, served at
// /debug/tracez. Recording is O(1) and allocation-free after the ring
// fills; memory is bounded by the ring size regardless of traffic.
type TraceRing struct {
	mu    sync.Mutex
	spans []Span
	next  int
	total uint64
}

// DefaultTraceCap is the ring size the daemon uses: enough to hold
// several flush rounds of a sizeable fleet while staying a few hundred
// KB at most.
const DefaultTraceCap = 256

// NewTraceRing builds a ring retaining the last n spans (n <= 0 uses
// DefaultTraceCap).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = DefaultTraceCap
	}
	return &TraceRing{spans: make([]Span, 0, n)}
}

// Record appends one span, evicting the oldest when full.
func (r *TraceRing) Record(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, s)
		return
	}
	r.spans[r.next] = s
	r.next++
	if r.next == len(r.spans) {
		r.next = 0
	}
}

// Snapshot returns the retained spans, newest first.
func (r *TraceRing) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	// r.next is the oldest retained span once the ring has wrapped.
	for i := 1; i <= len(r.spans); i++ {
		out = append(out, r.spans[(r.next-i+len(r.spans))%len(r.spans)])
	}
	return out
}

// Total returns how many spans were ever recorded (retained or
// evicted).
func (r *TraceRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// ServeHTTP renders the ring as JSON: {"total": N, "spans": [newest
// first]} — the /debug/tracez endpoint.
func (r *TraceRing) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	spans := r.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{"total": r.Total(), "spans": spans})
}

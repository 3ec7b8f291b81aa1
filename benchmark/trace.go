package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"substream/internal/obs"
)

// span is one timed call the harness made into a layer (or one hop the
// daemon recorded itself and the harness joined in). Times are
// nanoseconds since the recorder started. Spans of one request share
// Req: the daemon's X-Request-Id for HTTP calls, the shipment's trace ID
// for ship/fold hops.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    uint64 `json:"req,omitempty"`
	Agent  string `json:"agent,omitempty"`
	Stream string `json:"stream,omitempty"`
	Items  int    `json:"items,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps every span of a traced pass in memory; nothing is
// written until the pass ends.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	seen  map[uint64]bool // daemon trace IDs already joined
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16), seen: map[uint64]bool{}}
}

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.t0).Nanoseconds() }

// add records a finished span and returns its ID.
func (r *recorder) add(s span) uint64 {
	r.mu.Lock()
	s.ID = uint64(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// record is add for the common case: a call that ran from start to now.
// It is a no-op on a nil recorder, so untraced passes pay one branch.
func (r *recorder) record(name string, start time.Time, parent, req uint64, items int) uint64 {
	if r == nil {
		return 0
	}
	return r.add(span{Name: name, Parent: parent, Start: r.since(start), End: r.since(time.Now()), Req: req, Items: items})
}

// joinDaemon folds the daemon's own /debug/tracez spans into the trace.
// A "ship" span becomes ship ⊃ {marshal, ship_post}; the "fold" span
// with the same trace ID becomes collect_decode and fold under
// ship_post. parent is the harness span that caused the shipment. Spans
// already joined (the daemon ring is re-read every cycle) are skipped.
func (r *recorder) joinDaemon(parent uint64, ship, fold []obs.Span) {
	if r == nil {
		return
	}
	folds := make(map[uint64]obs.Span, len(fold))
	for _, f := range fold {
		folds[f.TraceID] = f
	}
	for _, s := range ship {
		if s.Stage != "ship" || s.Err != "" {
			continue
		}
		r.mu.Lock()
		dup := r.seen[s.TraceID]
		r.seen[s.TraceID] = true
		r.mu.Unlock()
		if dup {
			continue
		}
		start := r.since(s.Start)
		shipID := r.add(span{Name: "ship", Parent: parent, Start: start, End: start + s.SnapshotNs + s.PostNs,
			Req: s.TraceID, Agent: s.Agent, Stream: s.Stream, Bytes: s.Bytes})
		r.add(span{Name: "marshal", Parent: shipID, Start: start, End: start + s.SnapshotNs,
			Req: s.TraceID, Agent: s.Agent, Stream: s.Stream})
		postID := r.add(span{Name: "ship_post", Parent: shipID, Start: start + s.SnapshotNs, End: start + s.SnapshotNs + s.PostNs,
			Req: s.TraceID, Agent: s.Agent, Stream: s.Stream, Bytes: s.Bytes})
		f, ok := folds[s.TraceID]
		if !ok {
			continue
		}
		// The daemon reports decode and fold as durations inside its
		// handler, not as intervals; lay them end to end from arrival.
		at := r.since(f.Start)
		r.add(span{Name: "collect_decode", Parent: postID, Start: at, End: at + f.DecodeNs,
			Req: s.TraceID, Agent: s.Agent, Stream: s.Stream})
		r.add(span{Name: "fold", Parent: postID, Start: at + f.DecodeNs, End: at + f.DecodeNs + f.FoldNs,
			Req: s.TraceID, Agent: s.Agent, Stream: s.Stream})
	}
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval its children cover (overlapping children counted once,
// children clipped to the parent).
func selfTimes(spans []span) map[uint64]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[uint64][]iv{}
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, end int64
		end = s.Start
		for _, k := range ivs {
			if k.hi <= end {
				continue
			}
			covered += k.hi - max(k.lo, end)
			end = k.hi
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// writeTrace writes the pass's spans as one JSON document.
func writeTrace(path string, host hostInfo, workload string, seed uint64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"workload": workload, "seed": seed, "host": host, "spans": spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

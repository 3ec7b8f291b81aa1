// Package obs is the daemon's self-hosted observability layer: typed
// metrics (counters, gauges, histograms) collected into per-instance
// registries and served in Prometheus text format or as a flat JSON
// expvar-style view. Both formats are encoders driven by one walk over
// the registry, so they list the same series in the same order.
//
// The layer observes the system with the system's own machinery: latency
// histograms are backed by the mergeable CKMS quantile summaries of
// internal/quantile, so p50/p99/p999 of the daemon's internal paths
// (ingest decode, shard feed, agent flush, collector fold) are answered
// from a few-hundred-sample summary instead of a fixed bucket ladder —
// the paper's bounded-space discipline applied to the monitor itself.
//
// Counters are built for the ingest hot path: each counter is a small
// array of cache-line-padded atomic cells indexed by a goroutine-affine
// hash, so concurrent increments from HTTP handler goroutines and
// pipeline shard workers land on different cache lines instead of
// contending on one. Reads sum the cells; they are monotone but not
// linearizable across cells, which is exactly what a scrape needs.
//
// Registries are per-instance (like the expvar.Map panel they replace):
// an agent fleet inside one test binary never collides on process-global
// state.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// Metric kinds, in Prometheus TYPE vocabulary. Histograms expose as
// "summary" because they report φ-quantiles, not cumulative buckets.
const (
	KindCounter = "counter"
	KindGauge   = "gauge"
	KindSummary = "summary"
)

// Registry is an ordered collection of metric families. All
// registration methods are idempotent on the family name: registering
// the same name twice returns the existing instrument (names are the
// identity, as in Prometheus).
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric family: a help string, a kind, and either
// static series (counters, gauges, histograms) or a collect callback
// generating series at scrape time.
type family struct {
	name string
	help string
	kind string

	mu     sync.RWMutex
	series []*series
	byKey  map[string]*series

	// collect, when non-nil, makes this a dynamic family: every scrape
	// calls it with an emit function and renders whatever it emits —
	// the hook per-agent staleness gauges and pipeline occupancy use.
	collect func(emit func(v float64, labels ...Label))

	// sumJSON emits the family's summed value under the bare family
	// name in the JSON view — how a labeled counter family stays
	// compatible with consumers of the old flat expvar panel.
	sumJSON bool
}

// series is one concrete (labels, value) stream within a family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// value reads the series' current scalar (histograms render their own
// multi-sample form and never reach here).
func (s *series) value() float64 {
	switch {
	case s.c != nil:
		return float64(s.c.Value())
	case s.g != nil:
		return s.g.Value()
	}
	return 0
}

// lookup returns the named family, creating it with help/kind on first
// use. A kind clash panics: it is a programming error, caught by any
// test that touches the panel.
func (r *Registry) lookup(name, help, kind string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, KindCounter)
	return f.counterSeries(nil)
}

// CounterVec registers a counter family whose series are keyed by one
// label (e.g. ingest errors by cause). The family's sum is also exposed
// under the bare name in the JSON view.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	f := r.lookup(name, help, KindCounter)
	f.sumJSON = true
	return &CounterVec{fam: f, key: labelKey}
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, KindGauge)
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.series) == 0 {
		f.series = append(f.series, &series{g: new(Gauge)})
	}
	return f.series[0].g
}

// SetFunc registers a dynamic family: collect runs at every scrape and
// emits however many (value, labels) series currently exist — the shape
// of per-agent staleness gauges, whose label set changes as agents come
// and go, and of a value read at scrape time, one unlabeled emit.
func (r *Registry) SetFunc(name, help, kind string, collect func(emit func(v float64, labels ...Label))) {
	f := r.lookup(name, help, kind)
	f.collect = collect
}

// Histogram registers (or returns) a CKMS-backed latency histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	f := r.lookup(name, help, KindSummary)
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.series) == 0 {
		f.series = append(f.series, &series{h: newHistogram()})
	}
	return f.series[0].h
}

// counterSeries returns the family's series for the given labels,
// creating it on first use.
func (f *family) counterSeries(labels []Label) *Counter {
	key := labelKey(labels)
	f.mu.RLock()
	s, ok := f.byKey[key]
	f.mu.RUnlock()
	if ok {
		return s.c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s.c
	}
	s = &series{labels: labels, c: new(Counter)}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s.c
}

// labelKey renders labels as a canonical map key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	out := ""
	for _, l := range labels {
		out += l.Key + "\x00" + l.Value + "\x00"
	}
	return out
}

// CounterVec is a handle on a one-label counter family.
type CounterVec struct {
	fam *family
	key string
}

// With returns the counter for one label value, creating it on first
// use.
func (v *CounterVec) With(value string) *Counter {
	return v.fam.counterSeries([]Label{{Key: v.key, Value: value}})
}

// snapshotSeries returns the family's static series sorted by label key
// for deterministic exposition.
func (f *family) snapshotSeries() []*series {
	f.mu.RLock()
	out := make([]*series, len(f.series))
	copy(out, f.series)
	f.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool {
		return labelKey(out[i].labels) < labelKey(out[j].labels)
	})
	return out
}

// families returns the registered families in registration order.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, len(r.fams))
	copy(out, r.fams)
	return out
}

// formatValue renders a sample value the way Prometheus clients do:
// integers without exponent, floats in shortest round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

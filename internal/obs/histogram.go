package obs

import (
	"sync"
	"time"

	"substream/internal/quantile"
)

// Histogram tracks a latency (or size) distribution in bounded space:
// observations feed a CKMS targeted-quantile summary (internal/quantile,
// the same estimator the daemon serves as registry kind 0x40), so
// p50/p90/p99/p999 are answered from a few hundred retained samples
// (~12 KB) no matter how many observations arrive. It exposes as a
// Prometheus summary: one {quantile="φ"} sample per target plus _sum
// and _count.
//
// A mutex serializes observations; the instrumented paths record once
// per request/flush/fold (never per item), so the lock is uncontended
// relative to the work it measures.
type Histogram struct {
	mu  sync.Mutex
	q   *quantile.Estimator
	sum float64
}

// newHistogram builds a histogram over the package's default targets.
func newHistogram() *Histogram {
	return &Histogram{q: quantile.NewTargeted(quantile.DefaultTargets())}
}

// Observe records one value (seconds, for the daemon's latency
// histograms).
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.q.Insert(v)
	h.sum += v
	h.mu.Unlock()
}

// Since records the elapsed time from t0 to now, in seconds — the
// one-liner the instrumented paths use: defer m.X.Since(time.Now()).
func (h *Histogram) Since(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// histSample is one rendered quantile of a snapshot.
type histSample struct {
	Quantile float64
	Value    float64
}

// snapshot reads count, sum, and every target's current estimate under
// one lock, so a scrape's samples are mutually consistent.
func (h *Histogram) snapshot() (count uint64, sum float64, qs []histSample) {
	h.mu.Lock()
	defer h.mu.Unlock()
	count = h.q.N()
	sum = h.sum
	for _, t := range h.q.Targets() {
		qs = append(qs, histSample{Quantile: t.Quantile, Value: h.q.Query(t.Quantile)})
	}
	return count, sum, qs
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.q.N()
}

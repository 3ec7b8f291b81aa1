package server

import (
	"fmt"
	"net/http"
	"time"

	"substream/internal/estimator"
	"substream/internal/stream"
	"substream/internal/window"
)

// fold merges states into a fresh accumulator — the daemon's one merge
// loop, run by the agent over its shard replicas, by the collector over
// its retained per-agent states, and by the admission door over one
// incoming summary alone (doc.go, "How an answer is produced"). Merge
// mutates only its receiver, so the states stay pristine and one decode
// serves every later query; a state whose kind, config or hash seeds
// disagree with the accumulator fails inside Merge.
func fold(newAcc func() (estimator.Estimator, error), states []estimator.Estimator) (estimator.Estimator, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("no summaries to fold")
	}
	acc, err := newAcc()
	if err != nil {
		return nil, err
	}
	for _, s := range states {
		if err := acc.Merge(s); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// query is one question put to a fold: the full report (pred nil), or the
// subset sum of the keys matching pred in the cumulative or window scope.
type query struct {
	pred        func(stream.Item) bool
	windowScope bool
}

// answer is what a query produced: report for a nil pred, sum otherwise.
// ok is false when the stream's stat (or the asked scope) has no such
// answer — a configuration error the routes report as 400, never a zero.
type answer struct {
	report Estimates
	sum    float64
	ok     bool
}

// run is the one answer path — fold → scope → ask — behind all four query
// routes of both roles, and so the one place a query is counted and timed
// (served; the collector's cached report, which skips run, is counted
// there too). folded runs between the fold and the question: from there
// on only the private accumulator is read, so the agent gives its stream
// lock back there and the question stalls no ingest handler.
func (q query) run(m *Metrics, newAcc func() (estimator.Estimator, error), states []estimator.Estimator, folded func()) (answer, error) {
	defer m.served(time.Now())
	acc, err := fold(newAcc, states)
	folded()
	if err != nil {
		return answer{}, err
	}
	return q.ask(acc)
}

// served counts one answered query and times it from t0: estimate_queries
// and query_seconds cover every query, folded or cached.
func (m *Metrics) served(t0 time.Time) {
	m.EstimateQueries.Inc()
	m.Query.Since(t0)
}

// ask puts q to one folded estimator. A windowed stream's ring holds two
// scopes and deliberately does NOT satisfy estimator.Summer, so it is
// first asked for the scope's estimator; an unwindowed stream has only the
// cumulative scope, and a window-scoped question is refused rather than
// silently widened.
func (q query) ask(acc estimator.Estimator) (answer, error) {
	if q.pred == nil {
		return answer{report: estimator.ReportOf(acc), ok: true}, nil
	}
	if ring, ok := estimator.Unwrap(acc).(*window.Estimator); ok {
		var err error
		if acc, err = ring.Scope(q.windowScope); err != nil {
			return answer{}, err
		}
	} else if q.windowScope {
		return answer{}, nil
	}
	s, ok := estimator.SummerOf(acc)
	if !ok {
		return answer{}, nil
	}
	return answer{sum: s.SubsetSum(q.pred), ok: true}, nil
}

// folded describes the fold behind one collector answer: the fresh agents
// merged, the stale ones skipped, and the merged agents' ingest totals —
// all captured under one lock hold, so the numbers are mutually
// consistent. GlobalEstimate, SubsetSumResult and the error status of
// both collector query routes are views of it.
type folded struct {
	agents, skipped int
	fed, kept       uint64
}

// errStatus maps a failed collector query to its HTTP status. A known
// stream whose whole fleet went silent (503) is distinct from an
// unregistered one (404), so monitors can alert instead of reading it as
// "not rolled out yet"; a fold that had agents and still failed is 500.
func (f folded) errStatus() int {
	switch {
	case f.agents > 0:
		return http.StatusInternalServerError
	case f.skipped > 0:
		return http.StatusServiceUnavailable
	}
	return http.StatusNotFound
}

package server

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"substream/internal/estimator"
	"substream/internal/obs"
	"substream/internal/window"
)

// CollectorConfig configures a collector daemon.
type CollectorConfig struct {
	// MaxSummaryAge excludes agents whose newest accepted summary is
	// older than this from Estimate: an agent that shipped once and died
	// stops haunting the global estimate once its state expires, and the
	// response reports how many were skipped. 0 retains every agent
	// forever (the pre-staleness behavior).
	MaxSummaryAge time.Duration
	// Now is the staleness time source. Nil means time.Now; tests
	// substitute a fake to drive expiry deterministically.
	Now func() time.Time
	// SnapshotDir, when non-empty, enables durability checkpoints: the
	// retained summary table is atomically written to
	// SnapshotDir/collector.snap by Run every SnapshotInterval (and once
	// on shutdown), and NewCollector restores from it on startup. A
	// corrupt or unreadable snapshot is abandoned whole — the collector
	// starts empty and warns, and the agents' cumulative reships rebuild
	// the lost state within a flush interval.
	SnapshotDir string
	// SnapshotInterval is the checkpoint period. 0 means 30s.
	SnapshotInterval time.Duration
	// Logger receives structured operational logs (rejected summaries at
	// Warn, per-request lines at Debug). Nil discards them.
	Logger *slog.Logger
}

// Collector is the monitoring daemon's aggregation role: it retains the
// latest shipped summary per (stream, agent) and folds them on demand
// into the global estimate — the central site of the paper's
// sampled-NetFlow scenario.
type Collector struct {
	cfg       CollectorConfig
	logger    *slog.Logger
	metrics   *Metrics
	cacheHits *obs.Counter

	mu      sync.RWMutex
	streams map[string]*collectorStream
}

// collectorStream is the retained state of one logical stream: the
// config pinned at first sight, the constructor of the accumulator every
// fold of the stream starts from (and, for a windowed stream, the epoch
// clock its rings share), the latest state per agent, and the last full
// report a query folded.
type collectorStream struct {
	cfg    StreamConfig
	newAcc func() (estimator.Estimator, error)
	clock  window.Clock
	agents map[string]agentState
	// gen counts the replacements of an agent's state, the table's only
	// change in place (accept, under the write lock): a restore or a
	// delete builds or drops the whole stream, cache and all.
	gen uint64
	// report is published by one atomic store after a fold, so a query
	// never takes the write lock to fill it.
	report atomic.Pointer[cachedReport]
}

// reportKey names what a nil-predicate answer is a function of: the
// table's generation and the fresh agents selected from it (so expiry
// under MaxSummaryAge changes the key), and for a windowed stream the
// epoch the accumulator sat at.
type reportKey struct {
	gen   uint64
	ids   []string
	epoch uint64
}

func (k reportKey) equal(o reportKey) bool {
	return k.gen == o.gen && k.epoch == o.epoch && slices.Equal(k.ids, o.ids)
}

// cachedReport is a stream's last full report and the key it was folded
// under. It holds no accumulator and no state: a superseded state is
// garbage the moment accept drops it.
type cachedReport struct {
	key    reportKey
	report Estimates
}

// epochOf reads a windowed stream's epoch clock; an unwindowed stream has
// no clock and one epoch, 0.
func epochOf(clock window.Clock) uint64 {
	if clock == nil {
		return 0
	}
	return clock.Epoch()
}

// agentState is one agent's newest shipped summary, decoded once on
// arrival. The stored Summary's Payload is blanked — the decoded
// estimator is the retained representation. lastSeen timestamps the
// acceptance, the staleness clock MaxSummaryAge runs against.
type agentState struct {
	sum      Summary
	decoded  estimator.Estimator
	lastSeen time.Time
}

// NewCollector builds a collector. With a SnapshotDir configured it
// restores the last durability checkpoint: a valid snapshot repopulates
// the whole retained table, anything else (missing integrity trailer,
// truncation, bit flips, invalid entries) is abandoned whole and the
// collector starts empty with a warning — never a partial table.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = 30 * time.Second
	}
	logger := cfg.Logger
	if logger == nil {
		logger = discardLogger()
	}
	c := &Collector{
		cfg:     cfg,
		logger:  logger.With("role", "collector"),
		metrics: newMetrics(),
		streams: make(map[string]*collectorStream),
	}
	c.cacheHits = c.metrics.reg.Counter("estimate_cache_hits",
		"estimate queries answered from the stream's cached report, with no fold")
	c.registerAgentMetrics()
	if cfg.SnapshotDir != "" {
		c.removeOrphanTemps()
		switch n, err := c.RestoreSnapshot(); {
		case err != nil:
			c.logger.Warn("snapshot restore failed; starting empty", "err", err)
		case n > 0:
			c.logger.Info("snapshot restored", "entries", n, "path", c.snapshotPath())
		}
	}
	return c
}

// registerAgentMetrics surfaces the collector's retained fleet state as
// dynamic gauges, read under the stream lock at scrape time: per-agent
// last-seen age (the raw staleness clock), a per-agent stale flag, and
// per-stream retained/stale agent counts. Series are emitted in sorted
// (stream, agent) order so scrapes are deterministic.
func (c *Collector) registerAgentMetrics() {
	reg := c.metrics.reg
	perAgent := func(emit func(v float64, labels ...obs.Label), read func(st agentState, now time.Time) float64) {
		now := c.cfg.Now()
		c.mu.RLock()
		defer c.mu.RUnlock()
		for _, name := range sortedKeys(c.streams) {
			st := c.streams[name]
			for _, id := range sortedKeys(st.agents) {
				emit(read(st.agents[id], now),
					obs.Label{Key: "agent", Value: id}, obs.Label{Key: "stream", Value: name})
			}
		}
	}
	reg.SetFunc("collector_agent_last_seen_age_seconds",
		"seconds since each retained agent's newest accepted summary", obs.KindGauge,
		func(emit func(v float64, labels ...obs.Label)) {
			perAgent(emit, func(st agentState, now time.Time) float64 {
				return now.Sub(st.lastSeen).Seconds()
			})
		})
	reg.SetFunc("collector_agent_stale",
		"1 if the agent's retained summary has outlived max-summary-age, else 0", obs.KindGauge,
		func(emit func(v float64, labels ...obs.Label)) {
			perAgent(emit, func(st agentState, now time.Time) float64 {
				if c.stale(st, now) {
					return 1
				}
				return 0
			})
		})
	perStream := func(emit func(v float64, labels ...obs.Label), read func(st *collectorStream, now time.Time) float64) {
		now := c.cfg.Now()
		c.mu.RLock()
		defer c.mu.RUnlock()
		for _, name := range sortedKeys(c.streams) {
			emit(read(c.streams[name], now), obs.Label{Key: "stream", Value: name})
		}
	}
	reg.SetFunc("collector_agents", "retained agents, by stream", obs.KindGauge,
		func(emit func(v float64, labels ...obs.Label)) {
			perStream(emit, func(st *collectorStream, _ time.Time) float64 {
				return float64(len(st.agents))
			})
		})
	reg.SetFunc("collector_stale_agents",
		"retained agents currently excluded from estimates as stale, by stream", obs.KindGauge,
		func(emit func(v float64, labels ...obs.Label)) {
			perStream(emit, func(st *collectorStream, now time.Time) float64 {
				n := 0
				for _, state := range st.agents {
					if c.stale(state, now) {
						n++
					}
				}
				return float64(n)
			})
		})
}

// sortedKeys returns m's keys in sorted order — scrape determinism for
// the dynamic gauge families.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Metrics exposes the collector's instrument panel.
func (c *Collector) Metrics() *Metrics { return c.metrics }

// Handler returns the collector's HTTP API.
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/collect", c.handleCollect)
	mux.HandleFunc("GET /v1/streams", c.handleList)
	mux.HandleFunc("GET /v1/streams/{name}/estimate", c.handleEstimate)
	mux.HandleFunc("GET /v1/subsetsum", c.handleSubsetSum)
	mux.HandleFunc("DELETE /v1/streams/{name}", c.handleDelete)
	addOps(mux, "collector", c.metrics)
	return withRequestLog(c.logger, mux)
}

// stale reports whether an agent's retained state has outlived
// MaxSummaryAge as of now.
func (c *Collector) stale(st agentState, now time.Time) bool {
	return c.cfg.MaxSummaryAge > 0 && now.Sub(st.lastSeen) > c.cfg.MaxSummaryAge
}

// Accept folds one shipped summary into the retained state: first sight
// of a stream adopts its configuration, later summaries must match it,
// and per-agent ordering is by (Boot, Seq) — a higher Boot is a
// restarted agent whose fresh state replaces the old incarnation's,
// while within one incarnation stale or replayed shipments are ignored.
// Both properties together make shipping idempotent and restart-safe.
func (c *Collector) Accept(sum Summary) error {
	_, err := c.accept(sum, c.cfg.Now(), len(sum.Payload))
	return err
}

// accept is Accept plus observability: it reports which
// summaries_rejected cause a failure maps to, observes the live
// collect_decode_seconds and collect_fold_seconds, and records the "fold"
// leg of the shipment's trace — decode and trial-fold latency, end-to-end
// time from the agent's flush stamp, and the error if rejected.
func (c *Collector) accept(sum Summary, arrival time.Time, bytes int) (cause string, err error) {
	span := obs.Span{
		TraceID: sum.TraceID,
		Stage:   "fold",
		Stream:  sum.Stream,
		Agent:   sum.Agent,
		Start:   arrival,
		Bytes:   bytes,
	}
	if !sum.FlushedAt.IsZero() {
		span.E2ENs = arrival.Sub(sum.FlushedAt).Nanoseconds()
	}
	defer func() {
		if err != nil {
			span.Err = err.Error()
		}
		c.metrics.Trace.Record(span)
	}()
	adm, cause, err := c.admit(sum)
	span.DecodeNs, span.FoldNs = adm.decodeNs, adm.foldNs
	// Observed here, not in admit: a snapshot restore's rows pass admit
	// too, and snapshot_restore_seconds times that whole.
	if adm.decodeNs > 0 {
		c.metrics.CollectDecode.Observe(float64(adm.decodeNs) / 1e9)
	}
	if adm.foldNs > 0 {
		c.metrics.CollectFold.Observe(float64(adm.foldNs) / 1e9)
	}
	if err != nil {
		return cause, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := adm.adopt(c.streams)
	if err != nil {
		return causeConflict, err
	}
	// The live door's ordering rule is latest-wins by (Boot, Seq): within
	// one incarnation Seq orders shipments, and ANY Boot change is treated
	// as a newer incarnation and replaces the retained state. (Comparing
	// Boot values numerically would break when a restarted host's clock
	// stepped backwards; a cross-incarnation late delivery can briefly win
	// instead, but the live process's next flush repairs that, while a
	// clock step would never heal.)
	if prev, ok := st.agents[sum.Agent]; ok && prev.sum.Boot == sum.Boot && prev.sum.Seq >= sum.Seq {
		return "", nil // stale duplicate; newest state retained
	}
	adm.state.lastSeen = c.cfg.Now()
	st.agents[sum.Agent] = adm.state
	st.gen++
	return "", nil
}

// admission is one summary that passed the door: its config with defaults
// applied, the accumulator constructor built from it, the state to retain
// (lastSeen is the door's to stamp), and how long decode and trial fold
// took — set for every stage that ran, even on a rejection.
type admission struct {
	cfg              StreamConfig
	newAcc           func() (estimator.Estimator, error)
	clock            window.Clock
	state            agentState
	decodeNs, foldNs int64
}

// admit is the one door into the retained table (doc.go, "How an answer
// is produced"), passed by live shipments (accept) and snapshot rows
// (RestoreSnapshot) alike; a failure comes with its summaries_rejected
// cause. A corrupt payload, one of the wrong kind for the declared stat,
// or one whose estimator disagrees with the declared config (wrong p,
// foreign hash seeds, mismatched window shape) fails the decode or the
// merge-only trial fold here, rather than poisoning every later query.
func (c *Collector) admit(sum Summary) (adm admission, cause string, err error) {
	if sum.Stream == "" || sum.Agent == "" {
		return adm, causeConfig, fmt.Errorf("summary must name a stream and an agent")
	}
	adm.cfg = sum.Config.withDefaults()
	if err := adm.cfg.validate(); err != nil {
		return adm, causeConfig, fmt.Errorf("summary config: %w", err)
	}
	adm.newAcc, adm.clock = adm.cfg.newClocked()
	t0 := time.Now()
	decoded, err := estimator.Decode(sum.Payload)
	adm.decodeNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return adm, causePayload, fmt.Errorf("summary payload: %w", err)
	}
	t0 = time.Now()
	_, err = fold(adm.newAcc, []estimator.Estimator{decoded})
	adm.foldNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return adm, causePayload, fmt.Errorf("summary payload does not match its declared config: %w", err)
	}
	sum.Payload = nil // retained via decoded; drop the byte copy
	adm.state = agentState{sum: sum, decoded: decoded}
	return adm, "", nil
}

// adopt finds the admitted summary's stream in table or, on first sight,
// creates it pinned to the summary's config; every later summary must
// match the pin on all shared fields.
func (adm admission) adopt(table map[string]*collectorStream) (*collectorStream, error) {
	sum := adm.state.sum
	st, ok := table[sum.Stream]
	if !ok {
		st = &collectorStream{cfg: adm.cfg, newAcc: adm.newAcc, clock: adm.clock, agents: make(map[string]agentState)}
		table[sum.Stream] = st
	} else if !st.cfg.sharedEquals(adm.cfg) {
		return nil, fmt.Errorf("stream %q: agent %q ships config incompatible with the registered one",
			sum.Stream, sum.Agent)
	}
	return st, nil
}

// GlobalEstimate is the collector's answer for one stream: the folded
// estimates plus the contributing agents' ingest totals, all captured
// under one lock so the numbers are mutually consistent.
type GlobalEstimate struct {
	Estimates Estimates
	Agents    int
	// Skipped counts retained agents excluded from this fold because
	// their newest summary outlived MaxSummaryAge.
	Skipped int
	Fed     uint64
	Kept    uint64
}

// Estimate folds the latest summary of every fresh agent of the stream
// into the global estimate. Agents whose retained state has outlived
// MaxSummaryAge are skipped (and counted), so a long-dead agent cannot
// silently pin the estimate to its final snapshot. The report is the
// caller's own copy: the stream's cached one is shared by every query.
func (c *Collector) Estimate(name string) (GlobalEstimate, error) {
	ans, f, err := c.query(name, query{})
	rep := Estimates{
		Values:    maps.Clone(ans.report.Values),
		F1Hitters: slices.Clone(ans.report.F1Hitters),
		F2Hitters: slices.Clone(ans.report.F2Hitters),
	}
	return GlobalEstimate{Estimates: rep, Agents: f.agents, Skipped: f.skipped, Fed: f.fed, Kept: f.kept}, err
}

// query answers q for one stream: it selects the stream's fresh agents
// under the table's read lock — skipping, and counting, those whose
// retained state has outlived MaxSummaryAge — then folds their states in
// sorted agent order (so repeated queries are deterministic) and asks,
// both outside the lock: retained estimators are never mutated.
//
// The full report (a nil pred) is a function of the key the selection
// read — the generation, the fresh agents and, for a windowed stream, the
// epoch — so it is folded once per key: a query whose key matches the
// stream's cached report is answered from it, and a miss publishes what
// it folded unless the epoch moved during the fold. The shared report is
// only read after that (encoded, or cloned by Estimate).
func (c *Collector) query(name string, q query) (answer, folded, error) {
	var f folded
	c.mu.RLock()
	st, ok := c.streams[name]
	if !ok {
		c.mu.RUnlock()
		return answer{}, f, fmt.Errorf("unknown stream %q", name)
	}
	now := c.cfg.Now()
	ids := make([]string, 0, len(st.agents))
	for id, state := range st.agents {
		if c.stale(state, now) {
			f.skipped++
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	f.agents = len(ids)
	key := reportKey{gen: st.gen, ids: ids}
	states := make([]estimator.Estimator, len(ids))
	for i, id := range ids {
		state := st.agents[id]
		states[i] = state.decoded
		f.fed += state.sum.Fed
		f.kept += state.sum.Kept
	}
	newAcc := st.newAcc
	c.mu.RUnlock()

	if len(states) == 0 && f.skipped > 0 {
		return answer{}, f, fmt.Errorf("stream %q: all %d retained summaries are older than the max age",
			name, f.skipped)
	}
	if q.pred != nil {
		ans, err := q.run(c.metrics, newAcc, states, func() {})
		return ans, f, err
	}
	t0 := time.Now()
	key.epoch = epochOf(st.clock)
	if hit := st.report.Load(); hit != nil && hit.key.equal(key) {
		c.cacheHits.Inc()
		c.metrics.served(t0)
		return answer{report: hit.report, ok: true}, f, nil
	}
	ans, err := q.run(c.metrics, newAcc, states, func() {})
	if err == nil && epochOf(st.clock) == key.epoch {
		st.report.Store(&cachedReport{key: key, report: ans.report})
	}
	return ans, f, err
}

func (c *Collector) handleCollect(w http.ResponseWriter, r *http.Request) {
	arrival := time.Now()
	// A declared length over the limit is refused before any byte is
	// read, the way ingest refuses one; a body with no declared length
	// that MaxBytesReader cuts off gets the same answer.
	if r.ContentLength > maxSummaryBytes {
		c.metrics.CollectRejects.With(causeTooLarge).Inc()
		writeError(w, http.StatusRequestEntityTooLarge,
			"summary body %d bytes exceeds the %d-byte limit", r.ContentLength, int64(maxSummaryBytes))
		return
	}
	// The whole body is read before it is parsed. decodeSummary cuts only
	// the payload string out of it and hands everything else — the rest
	// of the envelope and anything after it — to json.Unmarshal as one
	// document, so data following the envelope is still refused; a
	// streaming Decoder would stop at the end of the first value and
	// accept the rest unseen. The buffer is sized from the declared
	// length only up to 1 MiB and grows with what actually arrives, so a
	// header alone reserves no more than that.
	body := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), 1<<20)+bytes.MinRead))
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxSummaryBytes))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		c.metrics.CollectRejects.With(causeTooLarge).Inc()
		writeError(w, http.StatusRequestEntityTooLarge, "summary body exceeds the %d-byte limit", tooLarge.Limit)
		return
	}
	var sum Summary
	if err == nil {
		sum, err = decodeSummary(body.Bytes())
	}
	if err != nil {
		c.metrics.CollectRejects.With(causeEnvelope).Inc()
		writeError(w, http.StatusBadRequest, "bad summary: %v", err)
		return
	}
	c.metrics.SummaryBytesIn.Add(uint64(body.Len()))
	if cause, err := c.accept(sum, arrival, body.Len()); err != nil {
		c.metrics.CollectRejects.With(cause).Inc()
		c.logger.Warn("summary rejected",
			"stream", sum.Stream, "agent", sum.Agent, "cause", cause, "err", err)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.metrics.SummariesIn.Inc()
	writeJSON(w, http.StatusAccepted, map[string]string{
		"stream": sum.Stream, "agent": sum.Agent, "status": "accepted",
	})
}

// agentInfo is one agent's row in the collector's list response.
type agentInfo struct {
	Agent    string    `json:"agent"`
	Seq      uint64    `json:"seq"`
	Epoch    uint64    `json:"epoch,omitempty"`
	Fed      uint64    `json:"fed"`
	Kept     uint64    `json:"kept"`
	LastSeen time.Time `json:"last_seen"`
	Stale    bool      `json:"stale,omitempty"`
}

// collectorInfo is one row of the collector's list response.
type collectorInfo struct {
	Name   string       `json:"name"`
	Config StreamConfig `json:"config"`
	Agents int          `json:"agents"`
	Fed    uint64       `json:"fed"`
	Kept   uint64       `json:"kept"`
	Detail []agentInfo  `json:"agent_detail"`
}

func (c *Collector) handleList(w http.ResponseWriter, _ *http.Request) {
	c.mu.RLock()
	now := c.cfg.Now()
	out := []collectorInfo{}
	for name, st := range c.streams {
		info := collectorInfo{Name: name, Config: st.cfg, Agents: len(st.agents)}
		for id, state := range st.agents {
			info.Fed += state.sum.Fed
			info.Kept += state.sum.Kept
			info.Detail = append(info.Detail, agentInfo{
				Agent:    id,
				Seq:      state.sum.Seq,
				Epoch:    state.sum.Epoch,
				Fed:      state.sum.Fed,
				Kept:     state.sum.Kept,
				LastSeen: state.lastSeen,
				Stale:    c.stale(state, now),
			})
		}
		sort.Slice(info.Detail, func(i, j int) bool { return info.Detail[i].Agent < info.Detail[j].Agent })
		out = append(out, info)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"streams": out})
}

// handleDelete drops a stream's retained state. This is the operator's
// recovery path after a coordinated configuration change: the collector
// pins the config it first saw and rejects mismatched shipments, so
// reconfigured fleets delete the stream here and let the agents' next
// flush re-register it under the new config.
func (c *Collector) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	c.mu.Lock()
	_, ok := c.streams[name]
	delete(c.streams, name)
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"stream": name, "status": "deleted"})
}

func (c *Collector) handleEstimate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ans, f, err := c.query(name, query{})
	if err != nil {
		writeError(w, f.errStatus(), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"stream": name, "agents": f.agents, "skipped_stale": f.skipped,
		"fed": f.fed, "kept": f.kept, "estimates": ans.report,
	})
}

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"substream/internal/estimator"
	"substream/internal/pipeline"
	"substream/internal/window"
)

// Duration is a time.Duration that JSON-encodes as a human-readable
// string ("90s", "5m") and accepts either a string or integer
// nanoseconds on input — the friendly form for -streams files.
type Duration time.Duration

// String renders the duration in time.Duration's notation.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON encodes the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "90s"-style strings or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// StreamConfig declares one named stream: which statistic to estimate,
// the sampling regime, and the pipeline shape. All agents feeding the
// same logical stream MUST share every estimator-affecting field (Stat,
// P, K, Epsilon, Alpha, Budget, Exact, Seed); Shards, Batch and
// SampleSeed are local to each process.
type StreamConfig struct {
	// Stat selects the estimator kind: any stat registered with the
	// internal/estimator registry (substreamd -list-estimators). A window
	// is not a stat: it is declared with Window and Epoch around one.
	Stat string `json:"stat"`
	// P is the Bernoulli sampling probability of the original stream.
	P float64 `json:"p"`
	// K is the moment order for Stat "fk" (and "all"). Default 2.
	K int `json:"k,omitempty"`
	// Epsilon is the target relative error. Default 0.2.
	Epsilon float64 `json:"eps,omitempty"`
	// Alpha is the heaviness threshold for hh1/hh2/all. Default 0.05.
	Alpha float64 `json:"alpha,omitempty"`
	// Budget bounds counter-based summaries (level-set collision counter
	// for "fk", top-k trackers). Default 4096.
	Budget int `json:"budget,omitempty"`
	// Exact selects the exact collision backend for "fk".
	Exact bool `json:"exact,omitempty"`
	// Seed constructs the estimator replicas. Identical Seed across
	// agents is what makes their summaries mergeable. Default 1.
	Seed uint64 `json:"seed,omitempty"`
	// Shards is the pipeline worker count. Default GOMAXPROCS.
	Shards int `json:"shards,omitempty"`
	// Batch is the pipeline batch size. Default 1024.
	Batch int `json:"batch,omitempty"`
	// Presampled declares that ingested items are already the sampled
	// stream L; the agent feeds them straight to the estimators. When
	// false (the default) the agent Bernoulli-samples ingested items at
	// rate P, the sampled-NetFlow deployment.
	Presampled bool `json:"presampled,omitempty"`
	// SampleSeed seeds the in-agent sampling coins. Unlike Seed it
	// SHOULD differ across agents (each monitor flips its own coins);
	// 0 lets the agent pick one.
	SampleSeed uint64 `json:"sample_seed,omitempty"`
	// Window, when > 0, wraps every replica in an epoch ring of Window
	// generations (internal/window): estimates then carry both the
	// cumulative values and "window_"-prefixed values covering the last
	// Window epochs. Like the estimator fields, it must match across
	// agents of one logical stream.
	Window int `json:"window,omitempty"`
	// Epoch is the epoch duration of windowed streams. Epoch boundaries
	// derive from Unix time, so agents with synchronized clocks and an
	// identical Epoch agree on them without coordination. Default 1m
	// when Window > 0.
	Epoch Duration `json:"epoch,omitempty"`
}

// DecodeConfig decodes a stream declaration — the body of PUT
// /v1/streams/{name} into a StreamConfig, a -streams document into a map
// of them — and refuses a key no field has and anything after the JSON
// value, /v1/collect's rule: a misspelt field ("epsilon" for "eps",
// "presample" for "presampled") would otherwise silently run the stream
// at the default. The error names the offending key.
func DecodeConfig(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// withDefaults fills unset fields: the estimator's from the registry's
// defaults, and the one default this package owns, the epoch length.
func (c StreamConfig) withDefaults() StreamConfig {
	s := c.spec().WithDefaults()
	c.K, c.Epsilon, c.Alpha, c.Budget, c.Seed = s.K, s.Epsilon, s.Alpha, s.Budget, s.Seed
	if c.Window > 0 && c.Epoch == 0 {
		c.Epoch = Duration(time.Minute)
	}
	return c
}

// validate rejects configurations the estimator constructors would panic
// on; HTTP input must never reach a panic. Stat membership comes from the
// estimator registry, so a newly registered kind is accepted here with no
// server change, and a refused stat is refused with the registry's reason.
func (c StreamConfig) validate() error {
	if _, err := estimator.Lookup(c.Stat); err != nil {
		return err
	}
	if !(c.P > 0 && c.P <= 1) {
		return fmt.Errorf("p must be in (0, 1], got %v", c.P)
	}
	if c.K < 2 || c.K > 12 {
		return fmt.Errorf("k must be in [2, 12], got %d", c.K)
	}
	if !(c.Epsilon > 0 && c.Epsilon < 1) {
		return fmt.Errorf("eps must be in (0, 1), got %v", c.Epsilon)
	}
	if !(c.Alpha > 0 && c.Alpha < 1) {
		return fmt.Errorf("alpha must be in (0, 1), got %v", c.Alpha)
	}
	if c.Budget < 1 {
		return fmt.Errorf("budget must be >= 1, got %d", c.Budget)
	}
	if c.Shards < 0 || c.Batch < 0 {
		return fmt.Errorf("shards and batch must be >= 0")
	}
	if c.Window < 0 || c.Window > window.MaxWindow {
		return fmt.Errorf("window must be in [0, %d], got %d", window.MaxWindow, c.Window)
	}
	if c.Window > 0 && c.Epoch <= 0 {
		return fmt.Errorf("windowed streams need a positive epoch, got %v", c.Epoch)
	}
	if c.Window == 0 && c.Epoch != 0 {
		return fmt.Errorf("epoch %v set without a window", c.Epoch)
	}
	return nil
}

// spec projects the estimator-affecting fields into the registry's
// construction input.
func (c StreamConfig) spec() estimator.Spec {
	return estimator.Spec{
		Stat: c.Stat, P: c.P, K: c.K, Epsilon: c.Epsilon,
		Alpha: c.Alpha, Budget: c.Budget, Exact: c.Exact, Seed: c.Seed,
	}
}

// sharedEquals reports whether two configs agree on every field that
// must match across agents for their summaries to merge. Window and
// Epoch are shared fields: rings of different spans or epoch lengths
// refuse to merge, exactly like estimators from different seeds.
func (c StreamConfig) sharedEquals(o StreamConfig) bool {
	return c.spec() == o.spec() && c.Window == o.Window && c.Epoch == o.Epoch
}

// newEpochClock builds the epoch clock of one windowed stream. A
// package-level hook so server tests can substitute a manual clock and
// drive epoch boundaries deterministically.
var newEpochClock = func(epochLen time.Duration) window.Clock {
	return window.NewWallClock(epochLen)
}

// newEstimator returns the constructor every replica of this stream is
// built from: the registered kind, wrapped in an epoch ring sharing
// clock when Window > 0. All replicas of one stream must be built from
// ONE returned constructor, so they share the clock and rotate in
// lockstep.
func (c StreamConfig) newEstimator() func() (estimator.Estimator, error) {
	newEst, _ := c.newClocked()
	return newEst
}

// newClocked is newEstimator plus the epoch clock every ring it builds
// shares, nil for an unwindowed stream: the collector keys its cached
// report by that clock's epoch.
func (c StreamConfig) newClocked() (func() (estimator.Estimator, error), window.Clock) {
	spec := c.spec()
	inner := func() (estimator.Estimator, error) { return estimator.New(spec) }
	if c.Window <= 0 {
		return inner, nil
	}
	clock := newEpochClock(time.Duration(c.Epoch))
	return func() (estimator.Estimator, error) {
		return window.Wrap(window.Config{
			Window:   c.Window,
			EpochLen: time.Duration(c.Epoch),
			Clock:    clock,
			New:      inner,
		})
	}, clock
}

// Estimates is the statistic report of one stream, local or global: the
// estimator layer's named-value report, served as JSON.
type Estimates = estimator.Report

// Summary is the envelope an agent ships upstream: the agent's full
// cumulative estimator state for one stream. Payload is the versioned
// binary form (see doc.go); JSON encodes it as base64. Boot identifies
// the agent process incarnation: a restarted agent starts over with a
// new Boot and Seq 1. Within one Boot the collector orders summaries by
// Seq; any Boot change is adopted as a new incarnation, so the fresh
// process's state replaces the dead one's instead of being mistaken for
// stale replays.
type Summary struct {
	Agent  string       `json:"agent"`
	Stream string       `json:"stream"`
	Boot   uint64       `json:"boot,omitempty"`
	Seq    uint64       `json:"seq"`
	Config StreamConfig `json:"config"`
	Fed    uint64       `json:"fed"`
	Kept   uint64       `json:"kept"`
	// Epoch is the epoch index the stream's ring was serialized at (0
	// for unwindowed streams) — the operator's handle for telling how
	// far behind an agent's window is without decoding the payload.
	Epoch uint64 `json:"epoch,omitempty"`
	// TraceID correlates this shipment's "ship" span (agent tracez ring)
	// with its "fold" span (collector tracez ring); FlushedAt is the
	// agent's flush wall time, from which the collector derives the
	// end-to-end flush→fold latency. Both are observability metadata:
	// acceptance and ordering never depend on them.
	TraceID   uint64    `json:"trace_id,omitempty"`
	FlushedAt time.Time `json:"flushed_at,omitzero"`
	// Payload is nearly all of an envelope's bytes, so the collector's
	// envelope reader (decodeSummary) cuts its base64 string out of the
	// body and decodes it directly instead of passing it through
	// encoding/json's scanner with the rest.
	Payload []byte `json:"payload"`
}

// pipe is the pipeline type every agent-side stream runs.
type pipe = pipeline.Pipeline[estimator.Estimator]

// runner is one agent-side stream: a running pipeline whose shard
// replicas are estimator.Estimators built from the stream's constructor
// (the registered kind, epoch-ring-wrapped for windowed streams — all
// replicas share one epoch clock); the query and shipping paths read it
// through fold (answer.go). Safe for concurrent use: the mutex
// serializes the single-producer pipeline feed with the Sync-based
// snapshot path, and guards the closed flag so an ingest racing a DELETE
// (or shutdown) is dropped instead of panicking the pipeline.
type runner struct {
	newEst func() (estimator.Estimator, error)
	mu     sync.Mutex
	pl     *pipe
	closed bool
}

// buildRunner constructs the agent-side stream for a validated config.
func buildRunner(cfg StreamConfig) (*runner, error) {
	newEst := cfg.newEstimator()
	// Probe-construct once so a bad spec surfaces as an error here, not
	// a panic inside a pipeline worker.
	if _, err := newEst(); err != nil {
		return nil, err
	}
	sampleP := cfg.P
	if cfg.Presampled {
		sampleP = 0
	}
	r := &runner{newEst: newEst}
	r.pl = pipeline.New(pipeline.Config{
		Shards:    cfg.Shards,
		BatchSize: cfg.Batch,
		SampleP:   sampleP,
		Seed:      cfg.SampleSeed,
	}, func(int) estimator.Estimator {
		e, err := newEst()
		if err != nil {
			panic(err) // unreachable: the probe construction above succeeded
		}
		return e
	})
	return r, nil
}

// feed runs one of the pipeline's Feed* calls under the runner's lock,
// adding the time taken (lock wait and ring back-pressure included) to
// *wait when wait is non-nil. On a closed runner the items are dropped,
// but release — the hand-back of an owned chunk, nil for copying feeds —
// still runs, or the decode pool would leak a chunk per racing request.
func (r *runner) feed(wait *time.Duration, release func(), fn func(*pipe)) {
	if wait != nil {
		defer func(t0 time.Time) { *wait += time.Since(t0) }(time.Now())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		fn(r.pl)
	} else if release != nil {
		release()
	}
}

// answer quiesces the pipeline, folds the shard replicas — left
// untouched, so ingestion continues afterwards — and asks q of the fold.
// The fed/kept counts are read at the same quiesce point, under the same
// lock hold, so they describe exactly the items the answer covers. The
// lock is released between the fold and the question, as snapshot releases
// it before the marshal: the accumulator is private to this call, and a
// report costs ingest nothing.
func (r *runner) answer(m *Metrics, q query) (ans answer, fed, kept uint64, err error) {
	r.mu.Lock()
	r.pl.Sync()
	fed, kept = r.pl.Fed(), r.pl.Kept()
	ans, err = q.run(m, r.newEst, r.pl.Replicas(), r.mu.Unlock)
	return ans, fed, kept, err
}

// shipment is one serialized cumulative state with what was captured
// atomically with it — the epoch index (0 for unwindowed streams) and the
// fed/kept counts, so a shipped Summary's totals always describe exactly
// its Payload — and where the time under the stream lock went: the wait
// for the shard workers to drain and settle, and the fold.
type shipment struct {
	payload    []byte
	epoch      uint64
	fed, kept  uint64
	sync, fold time.Duration
}

// snapshot serializes the stream's cumulative state. The lock covers only
// the quiesce, the fold and the counts: the fold's accumulator is private
// to this call, so it is serialized after the lock is released and ingest
// never waits for a marshal. The fold reads the replicas and leaves them
// as they were. For the kinds over the exact counting store each shard
// worker has ordered its own replica before Sync returns — both at once,
// and after the first flush only the keys that are new since the previous
// one — so the lock is held for that wait plus two linear joins (≈ 3 ms,
// most of it the index a tail cycle's 200 items bring back, and ≈ 4 ms at
// 350 k keys: BenchmarkExactCounterCycle's settle-delta and
// fold-2-settled-replicas; sorting both replicas in the fold took ≈ 17 ms),
// and the marshal that follows is one pass over an ordered slab.
func (r *runner) snapshot() (shipment, error) {
	r.mu.Lock()
	start := time.Now()
	r.pl.Sync()
	synced := time.Now()
	acc, err := fold(r.newEst, r.pl.Replicas())
	s := shipment{fed: r.pl.Fed(), kept: r.pl.Kept(), sync: synced.Sub(start), fold: time.Since(synced)}
	r.mu.Unlock()
	if err != nil {
		return s, err
	}
	if s.payload, err = acc.MarshalBinary(); err != nil {
		return s, err
	}
	// For windowed streams the summary advertises the epoch its ring was
	// serialized at (MarshalBinary rotates to it, hence read after); the
	// collector surfaces it per agent.
	s.epoch, _ = window.EpochOf(acc)
	return s, nil
}

func (r *runner) counts() (uint64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pl.Fed(), r.pl.Kept()
}

// stats returns the pipeline's instrumentation snapshot (queue
// occupancy, batch/sync counts) for the metrics layer.
func (r *runner) stats() pipeline.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pl.Stats()
}

func (r *runner) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.pl.Close()
}

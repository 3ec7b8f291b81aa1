// Package window adds time scope to the registry's cumulative summaries:
// it wraps any registered estimator.Estimator in a ring of generation
// replicas rotated on an epoch clock, so one ingest path answers both
// "since boot" (cumulative) and "over the last W epochs" (windowed)
// estimates — the standard production answer to a monitoring question
// like "distinct flows in the last five minutes", which a
// cumulative-since-boot summary cannot give.
//
// # Epoch ring
//
// An Estimator holds W generation replicas plus one cumulative replica,
// all constructed from one spec (and therefore mutually mergeable).
// Epochs are numbered by an absolute index supplied by a Clock; slot
// i of the ring holds the generation of epoch e with e % W == i:
//
//	epoch:   e-3   e-2   e-1    e (current)
//	          │     │     │     │
//	ring:   [gen] [gen] [gen] [gen]──── Observe/UpdateBatch also feed
//	          └─────┴──┬──┴─────┘       the cumulative replica
//	        window estimate = merge of all retained generations
//
// Rotation is lazy: every ingest or query first advances the ring to the
// clock's current epoch, resetting each slot whose generation has
// expired. Advancing by W or more epochs resets the whole ring in O(W),
// so an idle stream pays nothing per elapsed epoch.
//
// # Scopes
//
// Scope is the one accessor for "in which scope?": Scope(false) is the
// cumulative replica, Scope(true) the retained generations merged into a
// pristine accumulator at the current epoch. Whatever the inner kind can
// answer — a report, a subset sum — is asked of the estimator Scope
// returns; Estimates and EstimatorReport publish both scopes at once, the
// window's values under a "window_" prefix.
//
// # Alignment and merging
//
// The absolute epoch index is what makes windows mergeable across shard
// replicas and across agents: a wall clock derives it from Unix time, so
// every process with the same epoch length agrees on epoch boundaries
// without coordination. Merge aligns the older side to the newer side's
// epoch — generations that fell out of the newer window are dropped, the
// rest merge slot-by-slot — so folding replicas snapshotted at different
// epochs (a collector's view of agents on different flush schedules)
// yields exactly the union window.
//
// Sharded ingestion (internal/pipeline) works unchanged: build every
// shard replica with New around one shared Clock and the replicas rotate
// in lockstep; MergeAll's fold then realigns whatever epoch skew remains.
// Because pipeline workers apply batches asynchronously, a batch fed just
// before an epoch boundary may be applied just after it; quiesce the
// pipeline with Sync before reading an epoch-critical boundary if that
// skew matters.
package window

import (
	"fmt"
	"sync/atomic"
	"time"

	"substream/internal/estimator"
	"substream/internal/stream"
)

// MaxWindow bounds the generation count, here and in the decoder: a
// window is a handful of epochs, and a corrupt wire payload must not
// provoke thousands of replica allocations.
const MaxWindow = 1 << 12

// Clock supplies the absolute epoch index generations are keyed by. All
// replicas of one logical stream must share a clock (or clocks that agree
// on the index, as wall clocks with equal epoch lengths do).
// Implementations must be safe for concurrent use.
type Clock interface {
	Epoch() uint64
}

// wallClock derives the epoch index from Unix time, so independent
// processes with the same epoch length agree on epoch boundaries.
type wallClock struct {
	len int64 // nanoseconds
}

// NewWallClock returns a Clock ticking every epochLen of wall time. It
// panics if epochLen is not positive, like the estimator constructors.
func NewWallClock(epochLen time.Duration) Clock {
	if epochLen <= 0 {
		panic("window: epoch length must be positive")
	}
	return wallClock{len: int64(epochLen)}
}

func (c wallClock) Epoch() uint64 { return uint64(time.Now().UnixNano() / c.len) }

// ManualClock is an explicitly advanced Clock for tests, batch replays,
// and count-driven epochs (cmd/substream rotates one every N items). The
// zero value starts at epoch 0 and is ready to use.
type ManualClock struct {
	epoch atomic.Uint64
}

// NewManualClock returns a ManualClock at epoch 0.
func NewManualClock() *ManualClock { return &ManualClock{} }

// Epoch returns the current epoch index.
func (c *ManualClock) Epoch() uint64 { return c.epoch.Load() }

// Set moves the clock to epoch e. Moving backwards is allowed on the
// clock but rings never rotate backwards; estimators just stop advancing
// until the clock passes their epoch again.
func (c *ManualClock) Set(e uint64) { c.epoch.Store(e) }

// Advance moves the clock forward one epoch and returns the new index.
func (c *ManualClock) Advance() uint64 { return c.epoch.Add(1) }

// frozenClock pins decoded estimators to their snapshot epoch: a revived
// summary answers as of the moment it was serialized, and only advances
// when merged into a live ring.
type frozenClock uint64

func (c frozenClock) Epoch() uint64 { return uint64(c) }

// Config shapes a windowed estimator.
type Config struct {
	// Window is the number of epochs W the window spans (including the
	// current, partial one). The ring holds exactly W generations.
	Window int
	// EpochLen identifies the epoch length. Wall clocks interpret it as
	// a duration; count-driven deployments may store any positive value
	// (e.g. items per epoch). It is a merge-compatibility key: two
	// windowed estimators merge only if their EpochLen agree, because
	// the absolute epoch index is only meaningful against one length.
	EpochLen time.Duration
	// Clock supplies the epoch index. Default: NewWallClock(EpochLen).
	// Every replica of one logical stream must share the clock (see the
	// package comment on alignment).
	Clock Clock
	// New constructs one inner replica. It is called W+1 times at
	// construction (W generations plus the cumulative replica) and must
	// build every replica from identical configuration — the library's
	// usual mergeability rule.
	New func() (estimator.Estimator, error)
}

// Estimator wraps an inner estimator kind in an epoch ring. It
// implements estimator.Typed[*Estimator]; lift it to the interface with
// estimator.Adapt. Not safe for concurrent use, matching the inner
// estimators (the pipeline gives each replica a single owner).
type Estimator struct {
	window   int
	epochLen int64 // nanoseconds (or the deployment's opaque unit)
	clock    Clock
	epoch    uint64                // ring position: slot epoch-k%W holds epoch e-k
	gens     []estimator.Estimator // ring, len == window
	cum      estimator.Estimator   // cumulative-since-boot replica
	// pristine is the serialized empty inner replica. Resets and
	// window-query accumulators decode it instead of calling a factory,
	// so estimators revived from the wire — which carry no constructor —
	// rotate and answer queries exactly like constructed ones.
	pristine []byte
}

// New builds a windowed estimator around cfg.New replicas.
func New(cfg Config) (*Estimator, error) {
	if cfg.Window < 1 || cfg.Window > MaxWindow {
		return nil, fmt.Errorf("window: window must be in [1, %d], got %d", MaxWindow, cfg.Window)
	}
	if cfg.EpochLen <= 0 {
		return nil, fmt.Errorf("window: epoch length must be positive, got %v", cfg.EpochLen)
	}
	if cfg.New == nil {
		return nil, fmt.Errorf("window: missing inner estimator constructor")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = NewWallClock(cfg.EpochLen)
	}
	e := &Estimator{
		window:   cfg.Window,
		epochLen: int64(cfg.EpochLen),
		clock:    clock,
		epoch:    clock.Epoch(),
		gens:     make([]estimator.Estimator, cfg.Window),
	}
	for i := range e.gens {
		inner, err := cfg.New()
		if err != nil {
			return nil, err
		}
		e.gens[i] = inner
	}
	cum, err := cfg.New()
	if err != nil {
		return nil, err
	}
	e.cum = cum
	// Serialize one pristine replica now, while the factory is at hand;
	// see the pristine field. Built from the same cfg.New, it merges with
	// every generation.
	probe, err := cfg.New()
	if err != nil {
		return nil, err
	}
	e.pristine, err = probe.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("window: inner kind is not serializable: %w", err)
	}
	if _, err := e.fresh(); err != nil {
		return nil, fmt.Errorf("window: inner kind cannot ride a window payload: %w", err)
	}
	return e, nil
}

// Epoch advances the ring to the clock's current epoch and returns it.
func (e *Estimator) Epoch() uint64 { e.rotate(); return e.epoch }

// reset replaces slot i with a pristine replica.
func (e *Estimator) reset(i int) {
	fresh, err := e.fresh()
	if err != nil {
		// Unreachable: pristine round-tripped through fresh in New (or
		// was written by a replica Decode revived).
		panic(fmt.Sprintf("window: pristine payload stopped decoding: %v", err))
	}
	e.gens[i] = fresh
}

// rotate advances the ring to the clock's epoch, resetting expired slots.
func (e *Estimator) rotate() { e.advanceTo(e.clock.Epoch()) }

// advanceTo moves the ring forward to epoch target. Moving backwards is
// a no-op: generations are keyed by the furthest epoch the ring has seen.
func (e *Estimator) advanceTo(target uint64) {
	if target <= e.epoch {
		return
	}
	if target-e.epoch >= uint64(e.window) {
		for i := range e.gens {
			e.reset(i)
		}
	} else {
		for ep := e.epoch + 1; ep <= target; ep++ {
			e.reset(int(ep % uint64(e.window)))
		}
	}
	e.epoch = target
}

// current returns the generation of the current epoch.
func (e *Estimator) current() estimator.Estimator {
	return e.gens[int(e.epoch%uint64(e.window))]
}

// Observe feeds one item into the current generation and the cumulative
// replica.
func (e *Estimator) Observe(it stream.Item) {
	e.rotate()
	e.current().Observe(it)
	e.cum.Observe(it)
}

// UpdateBatch feeds a batch. The ring rotates once per batch, so a batch
// straddling an epoch boundary lands in the epoch at application time —
// the same boundary skew any asynchronous ingest path has.
func (e *Estimator) UpdateBatch(items []stream.Item) {
	e.rotate()
	e.current().UpdateBatch(items)
	e.cum.UpdateBatch(items)
}

// ObserveWeighted feeds one weighted item into the current generation
// and the cumulative replica — through each replica's native weighted
// path when the inner kind has one, and the weight-1 projection (bare
// key, observed once) otherwise. Windowed VarOpt reservoirs therefore
// answer "weight from subnet X in the last W epochs" with no extra
// plumbing.
func (e *Estimator) ObserveWeighted(it stream.Item, weight float64) {
	e.rotate()
	observeWeighted(e.current(), it, weight)
	observeWeighted(e.cum, it, weight)
}

func observeWeighted(dst estimator.Estimator, it stream.Item, weight float64) {
	if w, ok := estimator.WeightedOf(dst); ok {
		w.ObserveWeighted(it, weight)
		return
	}
	dst.Observe(it)
}

// UpdateWeightedBatch feeds a weighted batch, rotating once per batch
// like UpdateBatch.
func (e *Estimator) UpdateWeightedBatch(items []stream.WItem) {
	e.rotate()
	updateWeighted(e.current(), items)
	updateWeighted(e.cum, items)
}

func updateWeighted(dst estimator.Estimator, items []stream.WItem) {
	if w, ok := estimator.WeightedOf(dst); ok {
		w.UpdateWeightedBatch(items)
		return
	}
	for _, it := range items {
		dst.Observe(it.Key)
	}
}

// Settle forwards the pipeline's settling hook (pipeline.Settler) to every
// replica of the ring whose kind has one; on a replica that was not fed
// since it last settled it is a length comparison.
func (e *Estimator) Settle() {
	settle := func(part estimator.Estimator) {
		if s, ok := estimator.Unwrap(part).(interface{ Settle() }); ok {
			s.Settle()
		}
	}
	for _, gen := range e.gens {
		settle(gen)
	}
	settle(e.cum)
}

// Merge folds another windowed estimator into the receiver. Both sides
// must agree on window span and epoch length; the receiver first
// advances to the newer of (its clock, the other's ring), so generations
// of the other side that have already expired from that window are
// dropped rather than smeared into the estimate — this is the alignment
// a collector relies on when folding agents on different flush
// schedules. The other side is never mutated.
func (e *Estimator) Merge(other *Estimator) error {
	if e.window != other.window {
		return fmt.Errorf("window: cannot merge window of %d epochs into %d", other.window, e.window)
	}
	if e.epochLen != other.epochLen {
		return fmt.Errorf("window: cannot merge epoch length %v into %v",
			time.Duration(other.epochLen), time.Duration(e.epochLen))
	}
	e.rotate()
	e.advanceTo(other.epoch)
	// Slot-by-slot: other's ring holds epochs (other.epoch-W, other.epoch];
	// merge those still retained by the receiver, i.e. > e.epoch-W.
	for k := 0; k < e.window; k++ {
		if uint64(k) > other.epoch {
			break // ring older than epoch 0 — nothing was ever there
		}
		ep := other.epoch - uint64(k)
		if e.epoch-ep >= uint64(e.window) {
			break // expired from the receiver's window
		}
		slot := int(ep % uint64(e.window))
		if err := e.gens[slot].Merge(other.gens[slot]); err != nil {
			return err
		}
	}
	return e.cum.Merge(other.cum)
}

// Scope returns the estimator that answers in one time scope: the
// cumulative replica itself (window false — read it, never feed it), or
// the retained generations merged into a pristine accumulator at the
// clock's current epoch (window true, the last-W-epochs summary). Every
// scoped question — a report, a subset sum, whatever capability the
// inner kind has — is asked of the returned estimator.
func (e *Estimator) Scope(window bool) (estimator.Estimator, error) {
	if !window {
		return e.cum, nil
	}
	e.rotate()
	acc, err := e.fresh()
	if err != nil {
		return nil, err
	}
	for _, g := range e.gens {
		if err := acc.Merge(g); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// Estimates answers both scopes from one summary: the cumulative
// estimates under their usual names, and the last-W-epochs estimates
// under a "window_" prefix.
func (e *Estimator) Estimates() map[string]float64 { return e.EstimatorReport().Values }

// EstimatorReport reports the combined scalar map; the hitter lists come
// from the window scope, because recency is what the wrapper adds —
// Scope(false) still serves the since-boot lists. The window merge runs
// once and feeds both the window_ scalars and the hitter lists.
func (e *Estimator) EstimatorReport() estimator.Report {
	rep := estimator.Report{Values: make(map[string]float64)}
	for name, v := range e.cum.Estimates() {
		rep.Values[name] = v
	}
	acc, err := e.Scope(true)
	if err != nil {
		// Unreachable for rings built by New or Decode (generations
		// share one spec); a report has no error channel regardless.
		return rep
	}
	wrep := estimator.ReportOf(acc)
	for name, v := range wrep.Values {
		rep.Values["window_"+name] = v
	}
	rep.F1Hitters, rep.F2Hitters = wrep.F1Hitters, wrep.F2Hitters
	return rep
}

// SpaceBytes returns the footprint of every replica plus the pristine
// payload the ring resets from.
func (e *Estimator) SpaceBytes() int {
	total := e.cum.SpaceBytes() + len(e.pristine)
	for _, g := range e.gens {
		total += g.SpaceBytes()
	}
	return total
}

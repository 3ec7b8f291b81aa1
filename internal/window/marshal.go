package window

import (
	"fmt"

	"substream/internal/estimator"
	"substream/internal/wire"
)

// TagWindow is the wire tag of the windowed wrapper. The window package
// owns the range 0x30–0x3f (see internal/server/doc.go).
const TagWindow byte = 0x30

// compositeTagMin/Max bound the tags a window payload may NOT nest: its
// own composite range 0x30–0x3f. A replica is any other registered kind
// — core 0x20–0x2f, quantile 0x40–0x4f, sample 0x50–0x5f — since the
// ring wraps a stat; a component tag (0x01–0x1f) is no registered kind,
// so the registry refuses one as it would any unknown tag. The gate runs
// BEFORE decoding, so a crafted payload cannot nest another window (or any
// future composite in this range) and recurse the decoder — the same
// discipline as levelset's collision-counter switch.
const (
	compositeTagMin byte = TagWindow
	compositeTagMax byte = TagWindow + 0x0f
)

// decodeInner revives the replica r is about to yield through the
// registry, after gating its tag out of the composite range.
func decodeInner(r *wire.Reader) (estimator.Estimator, error) {
	if tag := r.Tag(); tag >= compositeTagMin && tag <= compositeTagMax {
		return nil, fmt.Errorf("window: payload tag %#x cannot ride inside a window", tag)
	}
	return estimator.DecodeFrom(r)
}

// fresh revives a new replica from the ring's pristine payload.
func (e *Estimator) fresh() (estimator.Estimator, error) { return wire.Decode(e.pristine, decodeInner) }

// MarshalBinary serializes the full ring state.
func (e *Estimator) MarshalBinary() ([]byte, error) { return wire.Marshal(e) }

// Encode writes the full ring state: epoch metadata, the pristine replica
// resets decode from, then the cumulative replica and every generation in
// slot order, each nested in place. The ring is rotated to the clock's
// epoch first, so the payload never ships expired generations.
func (e *Estimator) Encode(w *wire.Writer) {
	e.rotate()
	w.Header(TagWindow)
	w.I64(e.epochLen)
	w.U32(uint32(e.window))
	w.U64(e.epoch)
	w.Nested(e.pristine)
	w.Nest(e.cum)
	for _, g := range e.gens {
		w.Nest(g)
	}
}

// Decode reads a windowed estimator written by Encode. The revived
// estimator carries a clock frozen at its snapshot epoch: it answers as
// of that moment and never rotates on its own, which is exactly what a
// collector retaining per-agent states needs — alignment to "now" happens
// when it merges into a live accumulator.
func Decode(r *wire.Reader) (*Estimator, error) {
	r.Header(TagWindow)
	epochLen := r.I64()
	window := int(r.U32())
	epoch := r.U64()
	if r.Err() == nil && (epochLen <= 0 || window < 1 || window > MaxWindow) {
		r.Fail()
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	e := &Estimator{
		window:   window,
		epochLen: epochLen,
		clock:    frozenClock(epoch),
		epoch:    epoch,
		gens:     make([]estimator.Estimator, window),
	}
	// The pristine replica is decoded like the others, under the ring's
	// one budget; what outlives the decode (every later reset reads it) is
	// its payload, written back out of the replica rather than copied out
	// of the shared input buffer.
	pristine, err := wire.Nest(r, decodeInner)
	if err != nil {
		return nil, fmt.Errorf("window: pristine replica: %w", err)
	}
	if e.pristine, err = pristine.MarshalBinary(); err != nil {
		return nil, fmt.Errorf("window: pristine replica: %w", err)
	}
	if e.cum, err = wire.Nest(r, decodeInner); err != nil {
		return nil, fmt.Errorf("window: cumulative replica: %w", err)
	}
	for i := range e.gens {
		if e.gens[i], err = wire.Nest(r, decodeInner); err != nil {
			return nil, fmt.Errorf("window: generation %d: %w", i, err)
		}
	}
	// A crafted payload can nest replicas of mixed kinds (or foreign
	// seeds) that would only surface as a merge failure on the first
	// query — corrupt input must fail here instead. Trial-merging every
	// replica into a pristine copy proves the ring self-consistent once,
	// which is also what makes the merge error inside EstimatorReport
	// unreachable for decoded rings.
	acc, err := e.Scope(true)
	if err != nil {
		return nil, fmt.Errorf("window: generations do not merge: %w", err)
	}
	if err := acc.Merge(e.cum); err != nil {
		return nil, fmt.Errorf("window: cumulative replica does not merge: %w", err)
	}
	return e, nil
}

func init() {
	// No constructor: a Spec names one stat, not a wrapper plus an inner
	// stat, so a ring is built with New around one (the daemon from
	// StreamConfig.Window and Epoch, the CLI from -window) and only revived
	// through the registry.
	estimator.Register(estimator.Kind{
		Tag: TagWindow, Name: "window",
		Doc:    "epoch ring around one of the stats (declared with window/epoch or -window, not as a stat)",
		Decode: estimator.DecodeTyped(Decode),
	})
}

// Wrap builds a windowed estimator already lifted to the registry
// interface — the one-liner ingestion layers use.
func Wrap(cfg Config) (estimator.Estimator, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return estimator.Adapt(e), nil
}

// EpochOf returns the ring position of a (possibly adapted) windowed
// estimator WITHOUT advancing it, and false for any other estimator —
// the hook the agent uses to stamp Summary.Epoch. Read after
// MarshalBinary it names exactly the serialized epoch, even if the wall
// clock has since ticked (stamping clock-now instead would advertise an
// epoch the payload does not carry).
func EpochOf(e estimator.Estimator) (uint64, bool) {
	w, ok := estimator.Unwrap(e).(*Estimator)
	if !ok {
		return 0, false
	}
	return w.epoch, true
}

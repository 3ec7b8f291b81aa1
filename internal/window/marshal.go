package window

import (
	"fmt"

	"substream/internal/estimator"
	"substream/internal/sketch"
)

// TagWindow is the wire tag of the windowed wrapper. The window package
// owns the range 0x30–0x3f (see internal/server/doc.go).
const TagWindow byte = 0x30

// compositeTagMin/Max bound the tags a window payload may NOT nest: its
// own composite range 0x30–0x3f. Every concrete estimator range (sketch
// 0x01–0x0f, levelset 0x10–0x1f, core 0x20–0x2f, quantile 0x40–0x4f)
// rides freely. The gate runs BEFORE decoding, so a crafted payload
// cannot nest another window (or any future composite in this range) and
// recurse the decoder — the same discipline as levelset's
// collision-counter gate.
const (
	compositeTagMin byte = TagWindow
	compositeTagMax byte = TagWindow + 0x0f
)

// decodeInner revives one nested replica through the registry's single
// entry point, after gating its tag out of the composite range.
func decodeInner(data []byte) (estimator.Estimator, error) {
	tag, err := sketch.PayloadTag(data)
	if err != nil {
		return nil, err
	}
	if tag >= compositeTagMin && tag <= compositeTagMax {
		return nil, fmt.Errorf("window: payload tag %#x cannot ride inside a window", tag)
	}
	return estimator.Decode(data)
}

// MarshalBinary serializes the full ring state.
func (e *Estimator) MarshalBinary() ([]byte, error) { return sketch.Marshal(e) }

// Encode writes the full ring state: epoch metadata, the pristine replica
// resets decode from, then the cumulative replica and every generation in
// slot order, each nested in place. The ring is rotated to the clock's
// epoch first, so the payload never ships expired generations.
func (e *Estimator) Encode(w *sketch.Writer) {
	e.rotate()
	w.Header(TagWindow)
	w.I64(e.epochLen)
	w.U32(uint32(e.window))
	w.U64(e.epoch)
	w.Nested(e.pristine)
	nest(w, e.cum)
	for _, g := range e.gens {
		nest(w, g)
	}
}

// nest writes one replica in place. The registry interface cannot name
// the Writer (internal/sketch registers its own kinds, so the registry
// cannot import it); the estimator behind it can.
func nest(w *sketch.Writer, replica estimator.Estimator) {
	if enc, ok := estimator.Unwrap(replica).(sketch.Encoder); ok {
		w.Nest(enc)
	} else {
		w.Fail(fmt.Errorf("window: replica %T has no wire form", estimator.Unwrap(replica)))
	}
}

// Unmarshal reconstructs a windowed estimator from MarshalBinary output.
// The revived estimator carries a clock frozen at its snapshot epoch: it
// answers as of that moment and never rotates on its own, which is
// exactly what a collector retaining per-agent states needs — alignment
// to "now" happens when it merges into a live accumulator.
func Unmarshal(data []byte) (*Estimator, error) {
	r := sketch.NewReader(data)
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
	// Copy the pristine payload out of the shared input buffer: it
	// outlives the decode (every later reset reads it).
	e.pristine = append([]byte(nil), r.Nested()...)
	if r.Err() != nil {
		return nil, r.Err()
	}
	var err error
	if _, err = decodeInner(e.pristine); err != nil {
		return nil, fmt.Errorf("window: pristine replica: %w", err)
	}
	if e.cum, err = decodeInner(r.Nested()); err != nil {
		return nil, fmt.Errorf("window: cumulative replica: %w", err)
	}
	// Every replica is charged to the ring's reader as it is decoded, so
	// the generation count multiplies the replicas and not what they may
	// decode to together.
	r.Charge(e.cum.SpaceBytes())
	for i := 0; i < window && r.Err() == nil; i++ {
		if e.gens[i], err = decodeInner(r.Nested()); err != nil {
			return nil, fmt.Errorf("window: generation %d: %w", i, err)
		}
		r.Charge(e.gens[i].SpaceBytes())
	}
	if err := r.Done(); err != nil {
		return nil, err
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
	// Decode-only: a Spec names one statistic, not a wrapper plus an
	// inner statistic, so windowed estimators are constructed with New
	// (the daemon drives it from StreamConfig.Window) and only revived
	// through the registry.
	estimator.Register(estimator.Kind{
		Tag: TagWindow, Name: "window",
		Doc:    "epoch-ring window wrapper around any estimator (built via New, not a Spec)",
		Decode: estimator.DecodeTyped(Unmarshal),
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

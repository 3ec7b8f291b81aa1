package quantile

import (
	"math"

	"substream/internal/wire"
)

// Wire format (tag 0x40, wire.WireVersion, little-endian):
//
//	u32 target count T, then T × (f64 φ, f64 ε), ascending φ
//	u64 n (observed count)
//	u32 sample count S, then S × (f64 value, uvarint g, uvarint Δ), ascending value
//
// Sample values are arbitrary floats and stay fixed-width; the rank widths
// g and Δ are small integers almost everywhere and are varints.
//
// The buffer is flushed before serializing, so a payload is always the
// compressed state and Σg == n exactly. Decoding validates the CKMS
// structural invariants — ascending finite values, positive widths, Δ
// and Σg consistent with n — so a corrupt payload fails here instead of
// poisoning a collector's fold.

// MarshalBinary serializes the summary.
func (e *Estimator) MarshalBinary() ([]byte, error) { return wire.Marshal(e) }

// Encode writes the summary. Buffered values are flushed first, so equal
// logical states serialize identically.
func (e *Estimator) Encode(w *wire.Writer) {
	e.flush()
	w.Header(TagQuantile)
	w.U32(uint32(len(e.targets)))
	for _, t := range e.targets {
		w.F64(t.Quantile)
		w.F64(t.Epsilon)
	}
	w.U64(e.n)
	w.U32(uint32(len(e.samples)))
	for _, s := range e.samples {
		w.F64(s.v)
		w.Uvarint(s.g)
		w.Uvarint(s.delta)
	}
}

// Decode reads an Estimator written by Encode.
func Decode(r *wire.Reader) (*Estimator, error) {
	r.Header(TagQuantile)
	tc := r.Count(MaxTargets, 16)
	if r.Err() == nil && tc < 1 {
		r.Fail()
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	targets := make([]Target, tc)
	for i := range targets {
		targets[i] = Target{Quantile: r.F64(), Epsilon: r.F64()}
	}
	if r.Err() == nil && validTargets(targets) != nil {
		r.Failf("quantile: corrupt target set")
	}
	n := r.U64()
	sc := r.Count(wire.MaxWireElems, 10)
	if r.Err() != nil {
		return nil, r.Err()
	}
	e := &Estimator{
		targets: targets,
		samples: make([]sample, sc),
		n:       n,
		buf:     make([]float64, 0, bufferCap),
	}
	var sum uint64
	prev := math.Inf(-1)
	for i := range e.samples {
		s := sample{v: r.F64(), g: r.Uvarint(), delta: r.Uvarint()}
		if r.Err() != nil {
			return nil, r.Err()
		}
		// Structural invariants: finite ascending values, width ≥ 1, and
		// no rank range wider than the stream (a loose cap on Δ; the CKMS
		// invariant itself is tighter but depends on float rounding, so
		// exact re-validation would reject honest payloads).
		if math.IsNaN(s.v) || math.IsInf(s.v, 0) || s.v < prev || s.g < 1 || s.g > n || s.delta > n {
			r.Fail()
			return nil, r.Err()
		}
		prev = s.v
		sum += s.g
		e.samples[i] = s
	}
	if sum != n {
		r.Failf("quantile: sample widths sum to %d, payload claims n=%d", sum, n)
		return nil, r.Err()
	}
	return e, nil
}

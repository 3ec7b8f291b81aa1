package core

import (
	"math"

	"substream/internal/levelset"
	"substream/internal/sketch"
	"substream/internal/wire"
)

// This file serializes the paper's estimator wrappers with the shared
// wire primitives of internal/wire, completing the cross-process story:
// an agent daemon ships its cumulative estimator state to a collector,
// which decodes and folds it with the Merge paths in merge.go. The
// core package owns the tag range 0x20–0x2f (see internal/server/doc.go).

// Type tags for the serialized estimator wrappers.
const (
	TagFkEstimator    byte = 0x20
	TagF0Estimator    byte = 0x21
	TagEntropy        byte = 0x22
	TagF1HeavyHitters byte = 0x23
	TagF2HeavyHitters byte = 0x24
	TagMonitor        byte = 0x25
	TagGEEF0Estimator byte = 0x26
)

// validP reports whether p is a legal sampling probability.
func validP(p float64) bool { return p > 0 && p <= 1 }

// MarshalBinary serializes the estimator.
func (e *FkEstimator) MarshalBinary() ([]byte, error) { return wire.Marshal(e) }

// Encode writes the estimator, its collision counter nested in place.
func (e *FkEstimator) Encode(w *wire.Writer) {
	w.Header(TagFkEstimator)
	w.U32(uint32(e.k))
	w.F64(e.p)
	w.U64(e.nL)
	w.U32(uint32(len(e.schedule)))
	for _, eps := range e.schedule {
		w.F64(eps)
	}
	w.Nest(e.collisions)
}

// DecodeFkEstimator reads an FkEstimator written by Encode.
func DecodeFkEstimator(r *wire.Reader) (*FkEstimator, error) {
	r.Header(TagFkEstimator)
	k := int(r.U32())
	p := r.F64()
	nL := r.U64()
	if r.Err() == nil && (k < 2 || k > maxMomentOrder || !validP(p)) {
		r.Fail()
	}
	n := r.Count(maxMomentOrder+1, 8)
	if r.Err() == nil && n != k+1 {
		r.Failf("core: Fk schedule has %d entries, want %d", n, k+1)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	schedule := make([]float64, n)
	for i := range schedule {
		schedule[i] = r.F64()
		if r.Err() == nil && i >= 1 && !(schedule[i] > 0 && !math.IsInf(schedule[i], 0)) {
			r.Fail()
			return nil, r.Err()
		}
	}
	counter, err := wire.Nest(r, levelset.DecodeCollisionCounter)
	if err != nil {
		return nil, err
	}
	return &FkEstimator{k: k, p: p, nL: nL, schedule: schedule, collisions: counter}, nil
}

// MarshalBinary serializes the estimator.
func (e *F0Estimator) MarshalBinary() ([]byte, error) { return wire.Marshal(e) }

// Encode writes the estimator, its KMV sketch nested in place.
func (e *F0Estimator) Encode(w *wire.Writer) {
	w.Header(TagF0Estimator)
	w.F64(e.p)
	w.Nest(e.kmv)
}

// DecodeF0Estimator reads an F0Estimator written by Encode.
func DecodeF0Estimator(r *wire.Reader) (*F0Estimator, error) {
	r.Header(TagF0Estimator)
	p := r.F64()
	if r.Err() == nil && !validP(p) {
		r.Fail()
	}
	kmv, err := wire.Nest(r, sketch.DecodeKMV)
	if err != nil {
		return nil, err
	}
	return &F0Estimator{p: p, kmv: kmv}, nil
}

// MarshalBinary serializes the estimator.
func (e *GEEF0Estimator) MarshalBinary() ([]byte, error) { return wire.Marshal(e) }

// Encode writes the estimator, the frequency profile as a sorted item
// run.
func (e *GEEF0Estimator) Encode(w *wire.Writer) {
	w.Header(TagGEEF0Estimator)
	w.F64(e.p)
	e.counts.Encode(w)
}

// DecodeGEEF0Estimator reads a GEEF0Estimator written by Encode.
func DecodeGEEF0Estimator(r *wire.Reader) (*GEEF0Estimator, error) {
	r.Header(TagGEEF0Estimator)
	p := r.F64()
	if r.Err() == nil && !validP(p) {
		r.Fail()
	}
	e := &GEEF0Estimator{p: p}
	e.counts.Decode(r, math.MaxUint64)
	return e, r.Err()
}

// MarshalBinary serializes the estimator.
func (e *EntropyEstimator) MarshalBinary() ([]byte, error) { return wire.Marshal(e) }

// Encode writes the estimator, its frequencies as a sorted item run.
func (e *EntropyEstimator) Encode(w *wire.Writer) {
	w.Header(TagEntropy)
	w.F64(e.p)
	w.U64(e.counts.N())
	e.counts.Encode(w)
}

// DecodeEntropyEstimator reads an EntropyEstimator written by Encode.
func DecodeEntropyEstimator(r *wire.Reader) (*EntropyEstimator, error) {
	r.Header(TagEntropy)
	p := r.F64()
	nL := r.U64()
	if r.Err() == nil && !validP(p) {
		r.Fail()
	}
	e := &EntropyEstimator{p: p}
	e.counts.Decode(r, nL)
	if r.Err() == nil && e.counts.N() != nL {
		r.Failf("core: entropy frequencies sum to %d, header says %d", e.counts.N(), nL)
	}
	return e, r.Err()
}

// MarshalBinary serializes the estimator.
func (h *F1HeavyHitters) MarshalBinary() ([]byte, error) { return wire.Marshal(h) }

// Encode writes the estimator, its CountMin and candidate tracker nested
// in place. The byte before the CountMin is always 0.
func (h *F1HeavyHitters) Encode(w *wire.Writer) {
	w.Header(TagF1HeavyHitters)
	w.F64(h.p)
	w.F64(h.alpha)
	w.F64(h.eps)
	w.U64(h.observed)
	w.U8(0)
	w.Nest(h.cm)
	w.Nest(h.tracker)
}

// DecodeF1HeavyHitters reads an F1HeavyHitters written by Encode; it
// refuses a non-zero backend byte.
func DecodeF1HeavyHitters(r *wire.Reader) (*F1HeavyHitters, error) {
	r.Header(TagF1HeavyHitters)
	p := r.F64()
	alpha := r.F64()
	eps := r.F64()
	observed := r.U64()
	backend := r.U8()
	if r.Err() == nil && (!validP(p) || !(alpha > 0 && alpha < 1) || !(eps > 0 && eps < 1) || backend != 0) {
		r.Fail()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	h := &F1HeavyHitters{p: p, alpha: alpha, eps: eps,
		alphaPr: (1 - 2*eps/5) * alpha, observed: observed}
	var err error
	if h.cm, err = wire.Nest(r, sketch.DecodeCountMin); err != nil {
		return nil, err
	}
	h.tracker, err = wire.Nest(r, sketch.DecodeTopK)
	return h, err
}

// MarshalBinary serializes the estimator.
func (h *F2HeavyHitters) MarshalBinary() ([]byte, error) { return wire.Marshal(h) }

// Encode writes the estimator, its CountSketch and candidate tracker
// nested in place.
func (h *F2HeavyHitters) Encode(w *wire.Writer) {
	w.Header(TagF2HeavyHitters)
	w.F64(h.p)
	w.F64(h.alpha)
	w.F64(h.eps)
	w.U64(h.nL)
	w.Nest(h.cs)
	w.Nest(h.tracker)
}

// DecodeF2HeavyHitters reads an F2HeavyHitters written by Encode.
func DecodeF2HeavyHitters(r *wire.Reader) (*F2HeavyHitters, error) {
	r.Header(TagF2HeavyHitters)
	p := r.F64()
	alpha := r.F64()
	eps := r.F64()
	nL := r.U64()
	if r.Err() == nil && (!validP(p) || !(alpha > 0 && alpha < 1) || !(eps > 0 && eps < 1)) {
		r.Fail()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	h := &F2HeavyHitters{p: p, alpha: alpha, eps: eps,
		alphaPr: (1 - 2*eps/5) * alpha * math.Sqrt(p), nL: nL}
	var err error
	if h.cs, err = wire.Nest(r, sketch.DecodeCountSketch); err != nil {
		return nil, err
	}
	h.tracker, err = wire.Nest(r, sketch.DecodeTopK)
	return h, err
}

// monAllParts is the Monitor's presence byte: one bit per part, fk, f0,
// entropy, hh1 and hh2 from the low bit up. A Monitor holds all five, so
// the byte is fixed.
const monAllParts byte = 0x1f

// MarshalBinary serializes the monitor.
func (m *Monitor) MarshalBinary() ([]byte, error) { return wire.Marshal(m) }

// Encode writes the monitor: the fixed presence byte, then its five
// estimators nested in place.
func (m *Monitor) Encode(w *wire.Writer) {
	w.Header(TagMonitor)
	w.F64(m.p)
	w.U64(m.nL)
	w.U8(monAllParts)
	w.Nest(m.fk)
	w.Nest(m.f0)
	w.Nest(m.entropy)
	w.Nest(m.hh1)
	w.Nest(m.hh2)
}

// DecodeMonitor reads a Monitor written by Encode; it refuses a presence
// byte other than the fixed one.
func DecodeMonitor(r *wire.Reader) (*Monitor, error) {
	r.Header(TagMonitor)
	p := r.F64()
	nL := r.U64()
	parts := r.U8()
	if r.Err() == nil && (!validP(p) || parts != monAllParts) {
		r.Fail()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	m := &Monitor{p: p, nL: nL}
	var err error
	if m.fk, err = wire.Nest(r, DecodeFkEstimator); err != nil {
		return nil, err
	}
	if m.f0, err = wire.Nest(r, DecodeF0Estimator); err != nil {
		return nil, err
	}
	if m.entropy, err = wire.Nest(r, DecodeEntropyEstimator); err != nil {
		return nil, err
	}
	if m.hh1, err = wire.Nest(r, DecodeF1HeavyHitters); err != nil {
		return nil, err
	}
	if m.hh2, err = wire.Nest(r, DecodeF2HeavyHitters); err != nil {
		return nil, err
	}
	return m, nil
}

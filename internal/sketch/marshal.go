package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"substream/internal/rng"
	"substream/internal/stream"
)

// This file implements compact binary serialization for the summaries a
// distributed monitor ships to its collector. Formats are versioned
// little-endian with a per-type tag byte; hash functions are serialized
// as their polynomial coefficients so an unmarshalled sketch is
// bit-identical to — and therefore mergeable with — its source.
//
// The Writer/Reader primitives are exported because the wire format spans
// packages: internal/levelset and internal/core encode their composite
// estimator states with the same primitives and their own tag ranges (see
// internal/server/doc.go for the format rules and the tag registry).

// Type tags for the serialized formats. The sketch package owns the range
// 0x01–0x0f; internal/levelset owns 0x10–0x1f and internal/core owns
// 0x20–0x2f.
const (
	TagCountMin    byte = 0x01
	TagCountSketch byte = 0x02
	TagKMV         byte = 0x03
	TagHLL         byte = 0x04
	TagSpaceSaving byte = 0x05
	TagMisraGries  byte = 0x06
	TagTopK        byte = 0x07
)

// WireVersion is the single version byte every payload carries after its
// tag. Decoders reject any other value, so incompatible format changes
// must bump it. Version 2 marks the switch of CountMin/CountSketch
// bucket mapping from `hash mod width` to the divide-free fastrange
// reduction: the byte layout is unchanged, but version-1 tables placed
// counts at different columns, so merging across the boundary would
// silently corrupt estimates — the bump makes old payloads fail loudly
// instead.
const WireVersion byte = 2

// MaxWireElems bounds every element count read from the wire, keeping
// corrupt input from provoking huge allocations.
const MaxWireElems = 1 << 28

// maxDim bounds single sketch dimensions (width, k, …).
const maxDim = 1 << 24

// PayloadTag returns the type tag of a serialized payload without
// decoding it — the dispatch byte for format-agnostic consumers.
func PayloadTag(data []byte) (byte, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("sketch: empty payload")
	}
	return data[0], nil
}

// Writer accumulates little-endian fields of one payload.
type Writer struct{ buf []byte }

// Header writes the (tag, version) payload prefix.
func (w *Writer) Header(tag byte) { w.U8(tag); w.U8(WireVersion) }

// U8 appends one byte.
func (w *Writer) U8(v byte) { w.buf = append(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Hash2 appends a flat degree-1 kernel as a polynomial coefficient
// vector — a uint32 count, then the coefficients low degree first — the
// wire form every hash has had since the boxed general-degree
// representation, so old payloads stay readable.
func (w *Writer) Hash2(h rng.Hash2) {
	w.U32(2)
	w.U64(h.B)
	w.U64(h.A)
}

// Hash4 appends a flat degree-3 kernel in the same coefficient-vector
// wire form.
func (w *Writer) Hash4(h rng.Hash4) {
	w.U32(4)
	w.U64(h.C0)
	w.U64(h.C1)
	w.U64(h.C2)
	w.U64(h.C3)
}

// Nested appends a length-prefixed sub-payload, letting composite
// estimators embed their components' serialized forms verbatim.
func (w *Writer) Nested(payload []byte) {
	w.U32(uint32(len(payload)))
	w.buf = append(w.buf, payload...)
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Reader consumes little-endian fields with bounds checking. All methods
// are safe to call after a failure; they return zero values and the first
// error sticks.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.Fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a uint32 element count and fails if it exceeds max or if
// elemBytes > 0 and the remaining buffer cannot possibly hold that many
// elements — so a corrupt length can never drive a huge allocation.
func (r *Reader) Count(max, elemBytes int) int {
	v := r.U32()
	if r.err == nil && (max < 0 || int64(v) > int64(max)) {
		r.Fail()
		return 0
	}
	if r.err == nil && elemBytes > 0 && int64(v)*int64(elemBytes) > int64(len(r.buf)-r.off) {
		r.Fail()
		return 0
	}
	return int(v)
}

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Hash2 reads a flat degree-1 kernel: a coefficient vector that must
// carry exactly two in-field coefficients (every encoder of these sites
// has only ever written two).
func (r *Reader) Hash2() rng.Hash2 {
	if n := r.U32(); r.err != nil || n != 2 {
		r.Fail()
		return rng.Hash2{}
	}
	b := r.U64()
	a := r.U64()
	if r.err != nil || a >= uint64(1)<<61-1 || b >= uint64(1)<<61-1 {
		r.Fail()
		return rng.Hash2{}
	}
	return rng.Hash2{A: a, B: b}
}

// Hash4 reads a flat degree-3 kernel: a coefficient vector that must
// carry exactly four in-field coefficients.
func (r *Reader) Hash4() rng.Hash4 {
	if n := r.U32(); r.err != nil || n != 4 {
		r.Fail()
		return rng.Hash4{}
	}
	var coef [4]uint64
	for i := range coef {
		coef[i] = r.U64()
		if r.err != nil || coef[i] >= uint64(1)<<61-1 {
			r.Fail()
			return rng.Hash4{}
		}
	}
	return rng.Hash4{C0: coef[0], C1: coef[1], C2: coef[2], C3: coef[3]}
}

// Nested reads a length-prefixed sub-payload, returning a sub-slice of
// the input (no copy).
func (r *Reader) Nested() []byte {
	n := r.Count(len(r.buf)-r.off, 1)
	if r.err != nil {
		return nil
	}
	sub := r.buf[r.off : r.off+n]
	r.off += n
	return sub
}

// Fail records the generic truncation/corruption error (first error
// sticks).
func (r *Reader) Fail() {
	if r.err == nil {
		r.err = fmt.Errorf("sketch: truncated or corrupt serialized sketch")
	}
}

// Failf records a specific decode error (first error sticks).
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Done reports the first decode error, or complains about unconsumed
// trailing bytes.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("sketch: %d trailing bytes after sketch", len(r.buf)-r.off)
	}
	return nil
}

// Header validates the (tag, version) prefix.
func (r *Reader) Header(tag byte) {
	if got := r.U8(); r.err == nil && got != tag {
		r.Failf("sketch: wrong sketch type %#x (want %#x)", got, tag)
	}
	if got := r.U8(); r.err == nil && got != WireVersion {
		r.Failf("sketch: unsupported version %d", got)
	}
}

// MarshalBinary serializes the sketch.
func (cm *CountMin) MarshalBinary() ([]byte, error) {
	w := &Writer{}
	w.Header(TagCountMin)
	w.U32(uint32(cm.width))
	w.U32(uint32(cm.depth))
	w.U64(cm.n)
	for _, h := range cm.rows {
		w.Hash2(h)
	}
	for _, c := range cm.table {
		w.U64(c)
	}
	return w.Bytes(), nil
}

// UnmarshalCountMin reconstructs a CountMin from MarshalBinary output.
func UnmarshalCountMin(data []byte) (*CountMin, error) {
	r := NewReader(data)
	r.Header(TagCountMin)
	width := int(r.U32())
	depth := int(r.U32())
	n := r.U64()
	if r.err == nil && (width < 1 || depth < 1 || width > maxDim || depth > 64 || width*depth > MaxWireElems ||
		int64(width)*int64(depth)*8 > int64(r.Remaining())) {
		r.Fail()
	}
	if r.err != nil {
		return nil, r.err
	}
	cm := &CountMin{width: width, depth: depth, n: n,
		table: make([]uint64, width*depth), rows: make([]rng.Hash2, depth),
		rr: rng.NewRange(uint64(width))}
	for i := range cm.rows {
		cm.rows[i] = r.Hash2()
	}
	for i := range cm.table {
		cm.table[i] = r.U64()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return cm, nil
}

// MarshalBinary serializes the sketch.
func (cs *CountSketch) MarshalBinary() ([]byte, error) {
	w := &Writer{}
	w.Header(TagCountSketch)
	w.U32(uint32(cs.width))
	w.U32(uint32(cs.depth))
	w.U64(cs.n)
	for _, h := range cs.buckets {
		w.Hash2(h)
	}
	for _, h := range cs.signs {
		w.Hash4(h)
	}
	for _, c := range cs.table {
		w.I64(c)
	}
	return w.Bytes(), nil
}

// UnmarshalCountSketch reconstructs a CountSketch from MarshalBinary
// output.
func UnmarshalCountSketch(data []byte) (*CountSketch, error) {
	r := NewReader(data)
	r.Header(TagCountSketch)
	width := int(r.U32())
	depth := int(r.U32())
	n := r.U64()
	if r.err == nil && (width < 1 || depth < 1 || width > maxDim || depth > 64 || width*depth > MaxWireElems ||
		int64(width)*int64(depth)*8 > int64(r.Remaining())) {
		r.Fail()
	}
	if r.err != nil {
		return nil, r.err
	}
	cs := &CountSketch{width: width, depth: depth, n: n,
		table:   make([]int64, width*depth),
		buckets: make([]rng.Hash2, depth),
		signs:   make([]rng.Hash4, depth),
		rr:      rng.NewRange(uint64(width))}
	for i := range cs.buckets {
		cs.buckets[i] = r.Hash2()
	}
	for i := range cs.signs {
		cs.signs[i] = r.Hash4()
	}
	for i := range cs.table {
		cs.table[i] = r.I64()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return cs, nil
}

// MarshalBinary serializes the sketch.
func (s *KMV) MarshalBinary() ([]byte, error) {
	w := &Writer{}
	w.Header(TagKMV)
	w.U32(uint32(s.k))
	w.Hash2(s.h)
	w.U32(uint32(s.heap.Len()))
	for _, hv := range s.heap {
		w.U64(hv)
	}
	return w.Bytes(), nil
}

// UnmarshalKMV reconstructs a KMV from MarshalBinary output.
func UnmarshalKMV(data []byte) (*KMV, error) {
	r := NewReader(data)
	r.Header(TagKMV)
	k := int(r.U32())
	if r.err == nil && (k < 2 || k > maxDim) {
		r.Fail()
	}
	h := r.Hash2()
	count := r.Count(k, 8)
	if r.err != nil {
		return nil, r.err
	}
	s := &KMV{k: k, h: h, seen: make(map[uint64]struct{}, count)}
	for i := 0; i < count; i++ {
		hv := r.U64()
		if _, dup := s.seen[hv]; dup {
			r.Fail()
			break
		}
		s.seen[hv] = struct{}{}
		pushHash(&s.heap, hv)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// MarshalBinary serializes the sketch.
func (h *HLL) MarshalBinary() ([]byte, error) {
	w := &Writer{}
	w.Header(TagHLL)
	w.U8(byte(h.precision))
	w.U64(h.seedA)
	w.U64(h.seedB)
	w.buf = append(w.buf, h.registers...)
	return w.Bytes(), nil
}

// UnmarshalHLL reconstructs an HLL from MarshalBinary output.
func UnmarshalHLL(data []byte) (*HLL, error) {
	r := NewReader(data)
	r.Header(TagHLL)
	precision := uint(r.U8())
	seedA := r.U64()
	seedB := r.U64()
	if r.err == nil && (precision < 4 || precision > 18) {
		r.Fail()
	}
	if r.err != nil {
		return nil, r.err
	}
	want := 1 << precision
	if len(r.buf)-r.off != want {
		return nil, fmt.Errorf("sketch: HLL register block is %d bytes, want %d", len(r.buf)-r.off, want)
	}
	h := &HLL{precision: precision, seedA: seedA, seedB: seedB,
		registers: make([]uint8, want)}
	copy(h.registers, r.buf[r.off:])
	return h, nil
}

// MarshalBinary serializes the summary. Counters are written in heap
// order, so a round trip is byte-identical state.
func (ss *SpaceSaving) MarshalBinary() ([]byte, error) {
	w := &Writer{}
	w.Header(TagSpaceSaving)
	w.U32(uint32(ss.k))
	w.U64(ss.n)
	w.U32(uint32(len(ss.h.heap)))
	for _, id := range ss.h.heap {
		w.U64(uint64(ss.h.items[id]))
		w.U64(ss.h.counts[id])
		w.U64(ss.errs[id])
	}
	return w.Bytes(), nil
}

// UnmarshalSpaceSaving reconstructs a SpaceSaving from MarshalBinary
// output.
func UnmarshalSpaceSaving(data []byte) (*SpaceSaving, error) {
	r := NewReader(data)
	r.Header(TagSpaceSaving)
	k := int(r.U32())
	if r.err == nil && (k < 1 || k > maxDim) {
		r.Fail()
	}
	n := r.U64()
	count := r.Count(k, 24)
	if r.err != nil {
		return nil, r.err
	}
	ss := &SpaceSaving{k: k, n: n, errs: make([]uint64, 0, count)}
	ss.h.reset(count)
	for i := 0; i < count; i++ {
		it := stream.Item(r.U64())
		c := r.U64()
		e := r.U64()
		if r.err != nil {
			return nil, r.err
		}
		// The per-item invariant is f ∈ [count−err, count] with f ≥ 1 for
		// any tracked item; err > count would wrap the certified lower
		// bound, and no counter can exceed the observation count.
		if _, dup := ss.h.find(it); dup || c < 1 || e >= c || c > n {
			r.Fail()
			return nil, r.err
		}
		ss.h.load(it, c)
		ss.errs = append(ss.errs, e)
	}
	ss.h.heapify()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return ss, nil
}

// MarshalBinary serializes the summary. Counters are written in
// increasing item order, so equal summaries serialize identically.
func (mg *MisraGries) MarshalBinary() ([]byte, error) {
	w := &Writer{}
	w.Header(TagMisraGries)
	w.U32(uint32(mg.k))
	w.U64(mg.n)
	w.U32(uint32(len(mg.counters)))
	for _, it := range SortedKeys(mg.counters) {
		w.U64(uint64(it))
		w.U64(mg.counters[it])
	}
	return w.Bytes(), nil
}

// UnmarshalMisraGries reconstructs a MisraGries from MarshalBinary
// output.
func UnmarshalMisraGries(data []byte) (*MisraGries, error) {
	r := NewReader(data)
	r.Header(TagMisraGries)
	k := int(r.U32())
	if r.err == nil && (k < 1 || k > maxDim) {
		r.Fail()
	}
	n := r.U64()
	count := r.Count(k, 16)
	if r.err != nil {
		return nil, r.err
	}
	mg := &MisraGries{k: k, n: n, counters: make(map[stream.Item]uint64, count)}
	var prev stream.Item
	for i := 0; i < count; i++ {
		it := stream.Item(r.U64())
		c := r.U64()
		if r.err != nil {
			return nil, r.err
		}
		// Strictly increasing items double as the duplicate check.
		if (i > 0 && it <= prev) || c < 1 || c > n {
			r.Fail()
			return nil, r.err
		}
		prev = it
		mg.counters[it] = c
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return mg, nil
}

// MarshalBinary serializes the tracker. Entries are written in heap
// order, so a round trip is byte-identical state.
func (t *TopK) MarshalBinary() ([]byte, error) {
	w := &Writer{}
	w.Header(TagTopK)
	w.U32(uint32(t.k))
	w.U32(uint32(len(t.h.heap)))
	for _, id := range t.h.heap {
		w.U64(uint64(t.h.items[id]))
		w.F64(t.h.counts[id])
	}
	return w.Bytes(), nil
}

// UnmarshalTopK reconstructs a TopK from MarshalBinary output.
func UnmarshalTopK(data []byte) (*TopK, error) {
	r := NewReader(data)
	r.Header(TagTopK)
	k := int(r.U32())
	if r.err == nil && (k < 1 || k > maxDim) {
		r.Fail()
	}
	count := r.Count(k, 16)
	if r.err != nil {
		return nil, r.err
	}
	t := &TopK{k: k}
	t.h.reset(count)
	for i := 0; i < count; i++ {
		it := stream.Item(r.U64())
		c := r.F64()
		if r.err != nil {
			return nil, r.err
		}
		// NaN counts would poison every heap comparison.
		if _, dup := t.h.find(it); dup || math.IsNaN(c) {
			r.Fail()
			return nil, r.err
		}
		t.h.load(it, c)
	}
	t.h.heapify()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return t, nil
}

// SortedKeys returns the keys of an item-keyed map in increasing order —
// the canonical serialization order for every map-backed summary in the
// wire format (this package, internal/levelset, internal/core).
func SortedKeys[V any](m map[stream.Item]V) []stream.Item {
	items := make([]stream.Item, 0, len(m))
	for it := range m {
		items = append(items, it)
	}
	slices.Sort(items)
	return items
}

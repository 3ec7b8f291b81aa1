package sketch

import (
	"fmt"
	"math"

	"substream/internal/rng"
	"substream/internal/stream"
)

// This file serializes the package's own summaries for the distributed
// monitor's ship path, with the wire primitives of wire.go. Formats are
// versioned with a per-type tag byte; hash functions are serialized as
// their polynomial coefficients so an unmarshalled sketch is bit-identical
// to — and therefore mergeable with — its source. Every kind encodes once,
// in Encode; MarshalBinary is Marshal around it.

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
// must bump it. Version 3 is the compact layout: counter tables and
// sorted item runs are varint-coded (Writer.Cells, Writer.Run), counts
// elsewhere are varints, and nested payloads are written in place.
// (Version 2 kept version 1's layout and marked the switch of the
// CountMin/CountSketch bucket mapping to the fastrange reduction.)
const WireVersion byte = 3

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

// maxDecodedBytes bounds what one counter table, and what the children of
// one composite payload together (Reader.Charge), may decode to. A
// well-formed table is not bounded by the bytes that describe it — zero
// runs let a few bytes stand for any number of empty cells — so this is
// the bound on what a decode allocates. It is v2's, restated: a v2 table
// cost 8 bytes a cell on the wire, under a 256 MiB cap on the body. (A
// variable so that tests can lower it.)
var maxDecodedBytes = 256 << 20

// tableCells validates decoded table dimensions and returns the cell
// count.
func (r *Reader) tableCells(width, depth int) int {
	if r.err == nil && (width < 1 || depth < 1 || width > maxDim || depth > 64 || width*depth > maxDecodedBytes/8) {
		r.Fail()
	}
	if r.err != nil {
		return 0
	}
	return width * depth
}

// MarshalBinary serializes the sketch.
func (cm *CountMin) MarshalBinary() ([]byte, error) { return Marshal(cm) }

// Encode writes the sketch: dimensions, n, the row hashes, then the table
// as Writer.Cells.
func (cm *CountMin) Encode(w *Writer) {
	w.Header(TagCountMin)
	w.U32(uint32(cm.width))
	w.U32(uint32(cm.depth))
	w.U64(cm.n)
	for _, h := range cm.rows {
		w.Hash2(h)
	}
	w.Cells(cm.table)
}

// UnmarshalCountMin reconstructs a CountMin from MarshalBinary output.
func UnmarshalCountMin(data []byte) (*CountMin, error) {
	r := NewReader(data)
	r.Header(TagCountMin)
	width := int(r.U32())
	depth := int(r.U32())
	n := r.U64()
	cells := r.tableCells(width, depth)
	if r.err != nil {
		return nil, r.err
	}
	cm := &CountMin{width: width, depth: depth, n: n,
		rows: make([]rng.Hash2, depth), rr: rng.NewRange(uint64(width))}
	for i := range cm.rows {
		cm.rows[i] = r.Hash2()
	}
	cm.table = r.Cells(cells)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return cm, nil
}

// MarshalBinary serializes the sketch.
func (cs *CountSketch) MarshalBinary() ([]byte, error) { return Marshal(cs) }

// Encode writes the sketch: dimensions, n, the bucket and sign hashes,
// then the table as Writer.SignedCells.
func (cs *CountSketch) Encode(w *Writer) {
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
	w.SignedCells(cs.table)
}

// UnmarshalCountSketch reconstructs a CountSketch from MarshalBinary
// output.
func UnmarshalCountSketch(data []byte) (*CountSketch, error) {
	r := NewReader(data)
	r.Header(TagCountSketch)
	width := int(r.U32())
	depth := int(r.U32())
	n := r.U64()
	cells := r.tableCells(width, depth)
	if r.err != nil {
		return nil, r.err
	}
	cs := &CountSketch{width: width, depth: depth, n: n,
		buckets: make([]rng.Hash2, depth),
		signs:   make([]rng.Hash4, depth),
		rr:      rng.NewRange(uint64(width))}
	for i := range cs.buckets {
		cs.buckets[i] = r.Hash2()
	}
	for i := range cs.signs {
		cs.signs[i] = r.Hash4()
	}
	cs.table = r.SignedCells(cells)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return cs, nil
}

// MarshalBinary serializes the sketch.
func (s *KMV) MarshalBinary() ([]byte, error) { return Marshal(s) }

// Encode writes the sketch. The retained hash values are uniform 64-bit
// words and stay fixed-width.
func (s *KMV) Encode(w *Writer) {
	w.Header(TagKMV)
	w.U32(uint32(s.k))
	w.Hash2(s.h)
	w.U32(uint32(s.heap.Len()))
	for _, hv := range s.heap {
		w.U64(hv)
	}
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
func (h *HLL) MarshalBinary() ([]byte, error) { return Marshal(h) }

// Encode writes the sketch; the registers are already one byte each.
func (h *HLL) Encode(w *Writer) {
	w.Header(TagHLL)
	w.U8(byte(h.precision))
	w.U64(h.seedA)
	w.U64(h.seedB)
	w.Raw(h.registers)
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

// MarshalBinary serializes the summary.
func (ss *SpaceSaving) MarshalBinary() ([]byte, error) { return Marshal(ss) }

// Encode writes the summary. Counters are written in heap order, so a
// round trip is byte-identical state; that order is not key order, so keys
// stay fixed-width (a hashed 64-bit key would grow as a varint) and only
// counts and errors are varints.
func (ss *SpaceSaving) Encode(w *Writer) {
	w.Header(TagSpaceSaving)
	w.U32(uint32(ss.k))
	w.U64(ss.n)
	w.U32(uint32(len(ss.h.heap)))
	for _, id := range ss.h.heap {
		w.U64(uint64(ss.h.items[id]))
		w.Uvarint(ss.h.counts[id])
		w.Uvarint(ss.errs[id])
	}
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
	count := r.Count(k, 10)
	if r.err != nil {
		return nil, r.err
	}
	ss := &SpaceSaving{k: k, n: n, errs: make([]uint64, 0, count)}
	ss.h.reset(count)
	for i := 0; i < count; i++ {
		it := stream.Item(r.U64())
		c := r.Uvarint()
		e := r.Uvarint()
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

// MarshalBinary serializes the summary.
func (mg *MisraGries) MarshalBinary() ([]byte, error) { return Marshal(mg) }

// Encode writes the summary, the counters as a sorted item run, so equal
// summaries serialize identically.
func (mg *MisraGries) Encode(w *Writer) {
	w.Header(TagMisraGries)
	w.U32(uint32(mg.k))
	w.U64(mg.n)
	w.Freq(mg.counters)
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
	counters, _ := r.Freq(k, n)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &MisraGries{k: k, n: n, counters: counters}, nil
}

// MarshalBinary serializes the tracker.
func (t *TopK) MarshalBinary() ([]byte, error) { return Marshal(t) }

// Encode writes the tracker. Entries are written in heap order, so a
// round trip is byte-identical state; keys and float scores stay
// fixed-width.
func (t *TopK) Encode(w *Writer) {
	w.Header(TagTopK)
	w.U32(uint32(t.k))
	w.U32(uint32(len(t.h.heap)))
	for _, id := range t.h.heap {
		w.U64(uint64(t.h.items[id]))
		w.F64(t.h.counts[id])
	}
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

package sketch

import (
	"math"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// This file serializes the package's summaries with the wire primitives of
// internal/wire. They are components: on the ship path each rides nested
// in the payload of an internal/core estimator, whose decoder names the
// components it may hold, so none is a registry kind or a payload of its
// own. Formats are versioned with a per-type tag byte; hash functions are
// serialized as their polynomial coefficients so a decoded sketch is
// bit-identical to — and therefore mergeable with — its source. Every
// summary encodes once, in Encode, and decodes once, in its DecodeX, from
// the Reader it is handed: its parent's on the ship path, wire.Decode's
// when a test or an example round-trips one alone.

// Type tags for the serialized formats. The sketch package owns the range
// 0x01–0x0f; internal/levelset owns 0x10–0x1f and internal/core owns
// 0x20–0x2f. 0x04 and 0x06 were HyperLogLog's and Misra–Gries's and are
// never reused.
const (
	TagCountMin    byte = 0x01
	TagCountSketch byte = 0x02
	TagKMV         byte = 0x03
	TagSpaceSaving byte = 0x05
	TagTopK        byte = 0x07
)

// maxDim bounds single sketch dimensions (width, k, …).
const maxDim = 1 << 24

// tableCells validates decoded table dimensions and returns the cell
// count; whether a table of that many cells may be allocated is the
// decode budget's call (wire.Reader.Cells).
func tableCells(r *wire.Reader, width, depth int) int {
	if r.Err() == nil && (width < 1 || depth < 1 || width > maxDim || depth > 64) {
		r.Fail()
	}
	if r.Err() != nil {
		return 0
	}
	return width * depth
}

// MarshalBinary serializes the sketch.
func (cm *CountMin) MarshalBinary() ([]byte, error) { return wire.Marshal(cm) }

// Encode writes the sketch: dimensions, n, the row hashes, then the table
// as Writer.Cells.
func (cm *CountMin) Encode(w *wire.Writer) {
	w.Header(TagCountMin)
	w.U32(uint32(cm.width))
	w.U32(uint32(cm.depth))
	w.U64(cm.n)
	for _, h := range cm.rows {
		w.Hash2(h)
	}
	w.Cells(cm.table)
}

// DecodeCountMin reads a CountMin written by Encode.
func DecodeCountMin(r *wire.Reader) (*CountMin, error) {
	r.Header(TagCountMin)
	width := int(r.U32())
	depth := int(r.U32())
	n := r.U64()
	cells := tableCells(r, width, depth)
	if r.Err() != nil {
		return nil, r.Err()
	}
	cm := &CountMin{width: width, depth: depth, n: n,
		rows: make([]rng.Hash2, depth), rr: rng.NewRange(uint64(width))}
	for i := range cm.rows {
		cm.rows[i] = r.Hash2()
	}
	cm.table = r.Cells(cells)
	return cm, r.Err()
}

// MarshalBinary serializes the sketch.
func (cs *CountSketch) MarshalBinary() ([]byte, error) { return wire.Marshal(cs) }

// Encode writes the sketch: dimensions, n, the bucket and sign hashes,
// then the table as Writer.SignedCells.
func (cs *CountSketch) Encode(w *wire.Writer) {
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

// DecodeCountSketch reads a CountSketch written by Encode.
func DecodeCountSketch(r *wire.Reader) (*CountSketch, error) {
	r.Header(TagCountSketch)
	width := int(r.U32())
	depth := int(r.U32())
	n := r.U64()
	cells := tableCells(r, width, depth)
	if r.Err() != nil {
		return nil, r.Err()
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
	return cs, r.Err()
}

// MarshalBinary serializes the sketch.
func (s *KMV) MarshalBinary() ([]byte, error) { return wire.Marshal(s) }

// Encode writes the sketch. The retained hash values are uniform 64-bit
// words and stay fixed-width.
func (s *KMV) Encode(w *wire.Writer) {
	w.Header(TagKMV)
	w.U32(uint32(s.k))
	w.Hash2(s.h)
	w.U32(uint32(s.heap.Len()))
	for _, hv := range s.heap {
		w.U64(hv)
	}
}

// DecodeKMV reads a KMV written by Encode.
func DecodeKMV(r *wire.Reader) (*KMV, error) {
	r.Header(TagKMV)
	k := int(r.U32())
	if r.Err() == nil && (k < 2 || k > maxDim) {
		r.Fail()
	}
	h := r.Hash2()
	count := r.Count(k, 8)
	if r.Err() != nil {
		return nil, r.Err()
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
	return s, r.Err()
}

// MarshalBinary serializes the summary.
func (ss *SpaceSaving) MarshalBinary() ([]byte, error) { return wire.Marshal(ss) }

// Encode writes the summary. Counters are written in heap order, so a
// round trip is byte-identical state; that order is not key order, so keys
// stay fixed-width (a hashed 64-bit key would grow as a varint) and only
// counts and errors are varints. A merged summary's heap is rebuilt first
// (an owner call); a fed or decoded one is only read.
func (ss *SpaceSaving) Encode(w *wire.Writer) {
	ss.rebuild()
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

// DecodeSpaceSaving reads a SpaceSaving written by Encode and leaves it
// decoded: the slab in item order, the heap in the payload's layout over
// it, and no index (see the ordering contract).
func DecodeSpaceSaving(r *wire.Reader) (*SpaceSaving, error) {
	r.Header(TagSpaceSaving)
	k := int(r.U32())
	if r.Err() == nil && (k < 1 || k > maxDim) {
		r.Fail()
	}
	n := r.U64()
	count := r.Count(k, 10)
	if r.Err() != nil {
		return nil, r.Err()
	}
	// The counters in payload order: a counter's position is its heap
	// position.
	in := ssRun{items: make([]stream.Item, count), counts: make([]uint64, count), errs: make([]uint64, count)}
	for i := range count {
		it := stream.Item(r.U64())
		c := r.Uvarint()
		e := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		// The per-item invariant is f ∈ [count−err, count] with f ≥ 1 for
		// any tracked item; err > count would wrap the certified lower
		// bound, and no counter can exceed the observation count.
		if c < 1 || e >= c || c > n {
			r.Fail()
			return nil, r.Err()
		}
		in.items[i], in.counts[i], in.errs[i] = it, c, e
	}
	// Lay the slab out in item order, where a duplicate sits beside its
	// twin. The sorted positions are each new slab id's heap position, so
	// they become pos, and heap their inverse. Heapify compares counts
	// alone, so the layout it settles on is the one the payload order
	// gives.
	var buf [2][]int32
	pos := sortByItem(in.items, &buf)
	Permute(pos, in.items, in.counts, in.errs)
	for id := 1; id < count; id++ {
		if in.items[id] == in.items[id-1] {
			r.Fail()
			return nil, r.Err()
		}
	}
	ss := &SpaceSaving{k: k, n: n, errs: in.errs, layout: ssDecoded}
	h := &ss.h
	h.items, h.counts, h.pos, h.heap = in.items, in.counts, pos, make([]int32, count)
	for id, p := range pos {
		h.heap[p] = int32(id)
	}
	h.heapify()
	return ss, r.Err()
}

// Encode writes the tracker. Entries are written in heap order, so a
// round trip is byte-identical state; keys and float scores stay
// fixed-width.
func (t *TopK) Encode(w *wire.Writer) {
	w.Header(TagTopK)
	w.U32(uint32(t.k))
	w.U32(uint32(len(t.h.heap)))
	for _, id := range t.h.heap {
		w.U64(uint64(t.h.items[id]))
		w.F64(t.h.counts[id])
	}
}

// DecodeTopK reads a TopK written by Encode.
func DecodeTopK(r *wire.Reader) (*TopK, error) {
	r.Header(TagTopK)
	k := int(r.U32())
	if r.Err() == nil && (k < 1 || k > maxDim) {
		r.Fail()
	}
	count := r.Count(k, 16)
	if r.Err() != nil {
		return nil, r.Err()
	}
	t := &TopK{k: k}
	t.h.reset(count)
	for i := 0; i < count; i++ {
		it := stream.Item(r.U64())
		c := r.F64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		// NaN counts would poison every heap comparison.
		if _, dup := t.h.find(it); dup || math.IsNaN(c) {
			r.Fail()
			return nil, r.Err()
		}
		t.h.load(it, c)
	}
	t.h.heapify()
	return t, r.Err()
}

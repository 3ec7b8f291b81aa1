// Package wire owns the wire primitives every payload is built from: the
// fixed-width and varint fields, in-place nesting in both directions, and
// the two shapes that make up almost all of every payload — the sorted
// item run and the counter table. internal/sketch, internal/levelset,
// internal/core, internal/window, internal/quantile and internal/sample
// encode and decode their states with these and nothing else (format
// rules: internal/server/doc.go). It is a leaf: the estimator registry
// names Writer and Reader, every registered kind's package imports the
// registry, and the components those kinds nest (internal/sketch,
// internal/levelset) import this package and not the registry.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"substream/internal/rng"
	"substream/internal/stream"
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

// MaxDecodedBytes bounds what the counter tables of one top-level payload
// may decode to together, whatever its nesting. A well-formed table is not
// bounded by the bytes that describe it — zero runs let a few bytes stand
// for any number of empty cells — so this is the bound on what a decode
// allocates. It is v2's, restated: a v2 table cost 8 bytes a cell on the
// wire, under a 256 MiB cap on the body. (A variable so that tests can
// lower it; nothing else writes it.)
var MaxDecodedBytes = 256 << 20

// Writer appends the fields of one payload to a buffer. A composite hands
// its own Writer to each child (Nest), so a whole payload is written into
// one buffer in one pass, whatever its nesting. On a sizing pass a Writer
// only counts the bytes the same calls would append, which is how Marshal
// sizes that buffer.
type Writer struct {
	buf    []byte
	sizing bool
	size   int
}

// Encoder is a summary with a wire form: Encode writes its payload, header
// first, to the caller's Writer. It is called twice per Marshal — a sizing
// pass, then the writing one — and must write the same fields both times.
type Encoder interface{ Encode(w *Writer) }

// Marshal is every kind's MarshalBinary: a sizing pass over e, then its
// payload written into one buffer of that size. Every summary can be
// written, so the error, there for encoding.BinaryMarshaler, is nil.
func Marshal(e Encoder) ([]byte, error) {
	w := &Writer{sizing: true}
	e.Encode(w)
	*w = Writer{buf: make([]byte, 0, w.size)}
	e.Encode(w)
	return w.buf, nil
}

// Sizing reports whether this is a sizing pass, for an encoder that can
// spare it work the count does not depend on.
func (w *Writer) Sizing() bool { return w.sizing }

// uvarintLen is the number of bytes Uvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Header writes the (tag, version) payload prefix.
func (w *Writer) Header(tag byte) { w.U8(tag); w.U8(WireVersion) }

// U8 appends one byte.
func (w *Writer) U8(v byte) {
	if w.sizing {
		w.size++
		return
	}
	w.buf = append(w.buf, v)
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	if w.sizing {
		w.size += 4
		return
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	if w.sizing {
		w.size += 8
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Uvarint appends v as an LEB128 varint: 7 bits a byte, low group first.
func (w *Writer) Uvarint(v uint64) {
	if w.sizing {
		w.size += uvarintLen(v)
		return
	}
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

// Varint appends a signed value zigzag-mapped onto Uvarint, so small
// magnitudes of either sign stay short.
func (w *Writer) Varint(v int64) { w.Uvarint(uint64(v<<1) ^ uint64(v>>63)) }

// Hash2 appends a flat degree-1 kernel as a polynomial coefficient
// vector: a uint32 count, then the coefficients low degree first.
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

// Raw appends bytes as they are.
func (w *Writer) Raw(b []byte) {
	if w.sizing {
		w.size += len(b)
		return
	}
	w.buf = append(w.buf, b...)
}

// Nested appends an already serialized sub-payload behind its uint32
// length.
func (w *Writer) Nested(payload []byte) {
	w.U32(uint32(len(payload)))
	w.Raw(payload)
}

// Nest lets child write its payload in place behind a uint32 length that
// is patched once the child is done.
func (w *Writer) Nest(child Encoder) {
	w.U32(0)
	start := len(w.buf)
	child.Encode(w)
	if !w.sizing {
		binary.LittleEndian.PutUint32(w.buf[start-4:], uint32(len(w.buf)-start))
	}
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// RunWriter writes the entries of one sorted item run; see Writer.Run.
type RunWriter struct {
	w    *Writer
	prev stream.Item
}

// Run starts a sorted item run of n entries: a uint32 n, then per entry
// the key as a uvarint delta to the previous key (the first is a delta to
// 0, that is, absolute) and a uvarint count. The caller Puts exactly n
// entries in strictly increasing key order, and may follow each with
// fixed-width fields of its own, which the decoder reads back after the
// matching Next.
func (w *Writer) Run(n int) RunWriter {
	w.U32(uint32(n))
	return RunWriter{w: w}
}

// Put appends one entry. A sizing pass may Put the entries in any order:
// it counts a key as its distance to the previous one Put when that one is
// smaller — the key's predecessor in the written order is no farther — and
// in full otherwise (the smaller of the two numbers, as the difference
// wraps past the key when the previous one is larger), so the count is
// never short, and is exact when the order is already the written one.
func (rw *RunWriter) Put(it stream.Item, count uint64) {
	key := it - rw.prev
	if rw.w.sizing {
		key = min(key, it)
	}
	rw.prev = it
	rw.w.Uvarint(uint64(key))
	rw.w.Uvarint(count)
}

// Cells appends a table of unsigned counters: each non-zero cell as a
// uvarint, and each maximal run of z ≥ 1 zero cells as a 0 byte followed
// by uvarint z−1, so an untouched table costs a few bytes whatever its
// geometry. The cell count is not written; the decoder knows it from the
// dimensions in the payload header.
func (w *Writer) Cells(cells []uint64) { appendCells(w, cells, false) }

// SignedCells is Cells for signed counters, zigzag-mapped.
func (w *Writer) SignedCells(cells []int64) { appendCells(w, cells, true) }

func appendCells[C uint64 | int64](w *Writer, cells []C, signed bool) {
	for i := 0; i < len(cells); {
		c := cells[i]
		if c != 0 {
			if signed {
				w.Varint(int64(c))
			} else {
				w.Uvarint(uint64(c))
			}
			i++
			continue
		}
		j := i + 1
		for j < len(cells) && cells[j] == 0 {
			j++
		}
		w.U8(0)
		w.Uvarint(uint64(j - i - 1))
		i = j
	}
}

// Reader consumes the fields of one top-level payload with bounds
// checking. A composite hands its own Reader to each child (Nest), so a
// whole payload is decoded in place by one Reader, under one sticky error
// and one decode budget, whatever its nesting. All methods are safe to
// call after a failure; they return zero values and the first error
// sticks.
type Reader struct {
	// buf ends where the payload being decoded ends: the top-level one,
	// or inside Nest the child's.
	buf    []byte
	off    int
	budget int64 // what the payload's tables may still decode to
	err    error
}

// NewReader wraps data, one top-level payload with its decode budget, for
// decoding.
func NewReader(data []byte) *Reader {
	return &Reader{buf: data, budget: int64(MaxDecodedBytes)}
}

// Decode is every payload's way in from bytes: one Reader, and so one
// decode budget, over data; the kind's decode function; and the check that
// it consumed all of data.
func Decode[T any](data []byte, decode func(*Reader) (T, error)) (T, error) {
	r := NewReader(data)
	v, err := decode(r)
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// Nest decodes a child payload in place, the counterpart of Writer.Nest:
// it reads the child's uint32 length, bounds r to that many bytes while
// decode runs, and fails unless decode consumed exactly those. The child
// shares r's sticky error and decode budget.
func Nest[T any](r *Reader, decode func(*Reader) (T, error)) (T, error) {
	n := r.Count(r.Remaining(), 1)
	if r.err != nil {
		var zero T
		return zero, r.err
	}
	outer := r.buf
	r.buf = outer[:r.off+n]
	v, err := decode(r)
	if err == nil {
		err = r.Done() // still within the child's bounds
	}
	r.buf = outer
	if r.err == nil {
		r.err = err
	}
	return v, err
}

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

// Uvarint reads an LEB128 varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	b := r.buf[r.off:]
	if len(b) > 0 && b[0] < 0x80 {
		r.off++
		return uint64(b[0])
	}
	v, n := uvarintMulti(b)
	if n == 0 {
		r.Fail()
	}
	r.off += n
	return v
}

// uvarintMulti decodes the varint of two or more bytes that b starts with
// and returns it with its length, or with 0 when there is none to accept:
// it refuses truncation, a value past 64 bits (more than ten bytes, or a
// tenth byte above 1) and an over-long encoding, one whose last byte is 0
// — so every value has exactly one accepted byte form.
func uvarintMulti(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 || b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// Count reads a uint32 element count and fails if it exceeds max or if
// elemBytes > 0 and the remaining buffer cannot possibly hold that many
// elements of at least elemBytes each — so a corrupt length can never
// drive a huge allocation.
func (r *Reader) Count(max, elemBytes int) int {
	v := r.U32()
	if r.err == nil && (max < 0 || int64(v) > int64(max)) {
		r.Fail()
		return 0
	}
	if r.err == nil && elemBytes > 0 && int64(v)*int64(elemBytes) > int64(r.Remaining()) {
		r.Fail()
		return 0
	}
	return int(v)
}

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Hash2 reads a flat degree-1 kernel: a coefficient vector that must
// carry exactly two in-field coefficients.
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

// Raw reads n bytes as they are, returning a sub-slice of the input (no
// copy).
func (r *Reader) Raw(n int) []byte {
	if r.err != nil || n < 0 || n > r.Remaining() {
		r.Fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Nested reads a length-prefixed blob that is not a payload of this
// format (a snapshot row's JSON), returning a sub-slice of the input.
func (r *Reader) Nested() []byte { return r.Raw(r.Count(r.Remaining(), 1)) }

// Tag returns the tag byte of the payload r is about to read without
// consuming it, for a reader that dispatches on its child's kind.
func (r *Reader) Tag() byte {
	if r.err != nil || r.off == len(r.buf) {
		r.Fail()
		return 0
	}
	return r.buf[r.off]
}

// RunEntryBytes is the least a sorted-run entry can occupy — a one-byte
// key delta and a one-byte count — and so the per-element bound a bare
// run passes to Reader.Run.
const RunEntryBytes = 2

// RunReader iterates the entries of one sorted item run; see Reader.Run.
type RunReader struct {
	// N is the number of entries in the run, known before the first
	// Next so the caller can size its container once.
	N int
	// Item and Count are the entry the last successful Next read.
	Item  stream.Item
	Count uint64
	// Sum is the total of every Count read so far.
	Sum uint64

	r        *Reader
	read     int
	maxCount uint64
}

// Run starts reading a sorted item run of at most max entries, each at
// least entryBytes long on the wire (RunEntryBytes plus whatever fixed
// fields the caller reads after each Next) and counting at most maxCount.
func (r *Reader) Run(max, entryBytes int, maxCount uint64) RunReader {
	return RunReader{N: r.Count(max, entryBytes), r: r, maxCount: maxCount}
}

// Next reads the next entry and reports whether there was one. It fails
// the reader unless keys strictly increase (no zero delta, no wrap past
// 2⁶⁴), every count is in [1, maxCount] and the counts sum within 64
// bits.
func (run *RunReader) Next() bool {
	r := run.r
	if r.err != nil || run.read == run.N {
		return false
	}
	var delta, count uint64
	if b := r.buf[r.off:]; len(b) >= 2 && b[0] < 0x80 && b[1] < 0x80 {
		// Both one byte, as most are: nearby keys, small counts.
		delta, count = uint64(b[0]), uint64(b[1])
		r.off += 2
	} else if delta, count = r.Uvarint(), r.Uvarint(); r.err != nil {
		return false
	}
	item, sum := run.Item+stream.Item(delta), run.Sum+count
	if (run.read > 0 && item <= run.Item) || count < 1 || count > run.maxCount || sum < run.Sum {
		r.Fail()
		return false
	}
	run.Item, run.Count, run.Sum = item, count, sum
	run.read++
	return true
}

// Cells reads a table of n counters written by Writer.Cells. Zero runs
// let a few bytes stand for any number of cells — the one place where the
// wire bytes do not bound what they decode to — so the table is charged to
// the payload's decode budget (MaxDecodedBytes) before it is allocated,
// and a table of a mebibyte or more is walked once first: input that
// cannot fill it — cut short, or with a zero run reaching past the end —
// fails without the allocation. A smaller table is not worth the second
// walk.
func (r *Reader) Cells(n int) []uint64 { return readCells[uint64](r, n, false) }

// SignedCells is Cells for a table written by Writer.SignedCells.
func (r *Reader) SignedCells(n int) []int64 { return readCells[int64](r, n, true) }

// errBudget refuses a payload whose tables decode to more than
// MaxDecodedBytes together.
var errBudget = errors.New("sketch: payload's counter tables decode to more than the decode budget")

func readCells[C uint64 | int64](r *Reader, n int, signed bool) []C {
	if r.budget -= 8 * int64(n); r.err == nil && r.budget < 0 {
		r.err = errBudget
	}
	if n >= 1<<20/8 { // 8 bytes a cell
		start := r.off
		scanCells[C](r, nil, n, signed)
		r.off = start
	}
	if r.err != nil {
		return nil
	}
	cells := make([]C, n)
	scanCells(r, cells, n, signed)
	return cells
}

// scanCells reads n cells, storing the non-zero ones into cells unless it
// is nil. It is the decoder's one per-cell loop, so it keeps its position
// in locals and reads a one-byte varint, the common case, without a call.
func scanCells[C uint64 | int64](r *Reader, cells []C, n int, signed bool) {
	if r.err != nil {
		return
	}
	buf, off := r.buf, r.off
	for i := 0; i < n; {
		if off == len(buf) {
			r.Fail()
			return
		}
		u, k := uint64(buf[off]), 1
		if u >= 0x80 {
			u, k = uvarintMulti(buf[off:])
		}
		if off += k; u != 0 {
			if signed {
				u = u>>1 ^ -(u & 1) // zigzag, undoing Writer.Varint
			}
			if cells != nil {
				cells[i] = C(u)
			}
			i++
			continue
		}
		// u is 0 for a varint that was refused (k is 0 then) and for the
		// zero-run escape, whose length follows.
		if k == 0 || off == len(buf) {
			r.Fail()
			return
		}
		zeros, kz := uint64(buf[off]), 1
		if zeros >= 0x80 {
			zeros, kz = uvarintMulti(buf[off:])
		}
		if off += kz; kz == 0 || zeros >= uint64(n-i) {
			r.Fail()
			return
		}
		i += int(zeros) + 1
	}
	r.off = off
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
		return fmt.Errorf("sketch: %d trailing bytes after sketch", r.Remaining())
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

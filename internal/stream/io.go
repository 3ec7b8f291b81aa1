package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// This file owns the item wire formats — every producer and consumer of
// items outside a process (the command-line tools, the daemon's ingest
// endpoint) goes through the one parser each format has here:
//
//   - text: one decimal key per line, the weighted form adding an optional
//     second column ("key weight", weight 1 when absent, so unweighted
//     files are valid weighted input). Blank lines are skipped, a trailing
//     \r is tolerated (CRLF files), keys are 1-based, weights positive and
//     finite.
//   - binary records: fixed 8-byte little-endian keys, the weighted form
//     16 bytes — the key followed by the weight's float64 bits — the
//     length-delimited framing a forwarding monitor POSTs.
//
// It also keeps the compact "sub1" varint file format.

// ErrBadWeight marks a weighted line or record whose weight is unusable,
// so callers can tell a misbehaving exporter from garbled framing.
var ErrBadWeight = errors.New("weight is not positive and finite")

var errZeroKey = errors.New("item 0 is outside the 1-based universe")

// RecordSize and WeightedRecordSize are the binary record lengths.
const (
	RecordSize         = 8
	WeightedRecordSize = 16
)

// ParseLine parses one line of the text form (without its newline): a
// decimal item, or a blank (ok == false).
func ParseLine(b []byte) (it Item, ok bool, err error) {
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	if len(b) == 0 {
		return 0, false, nil
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false, fmt.Errorf("invalid decimal item %q", b)
		}
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, false, fmt.Errorf("item %q overflows uint64", b)
		}
		v = v*10 + d
	}
	if v == 0 {
		return 0, false, errZeroKey
	}
	return Item(v), true, nil
}

// ParseWeightedLine parses one line of the weighted text form: "key
// weight", "key" (weight 1), or a blank (ok == false). The key column is
// ParseLine's, so key diagnostics match the plain form.
func ParseWeightedLine(b []byte) (it WItem, ok bool, err error) {
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	key, weight := b, []byte(nil)
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		key, weight = b[:i], b[i+1:]
	}
	it.Weight = 1
	if it.Key, ok, err = ParseLine(key); err != nil || !ok {
		return WItem{}, ok, err
	}
	if len(weight) > 0 {
		it.Weight, err = strconv.ParseFloat(string(weight), 64)
		if err != nil {
			return WItem{}, false, fmt.Errorf("%w: %q", ErrBadWeight, weight)
		}
		if !(it.Weight > 0) || math.IsInf(it.Weight, 0) {
			return WItem{}, false, fmt.Errorf("%w: %v", ErrBadWeight, it.Weight)
		}
	}
	return it, true, nil
}

// ParseRecords appends the 8-byte records of buf (whose length must be a
// multiple of RecordSize) to dst. The main loop decodes four records per
// iteration from one re-sliced window — four independent loads the CPU
// overlaps, with one bounds check instead of four — matching the 4-lane
// shape of the hash kernels downstream.
func ParseRecords(buf []byte, dst []Item) ([]Item, error) {
	off := 0
	for ; off+32 <= len(buf); off += 32 {
		b := buf[off : off+32 : off+32]
		v0 := binary.LittleEndian.Uint64(b[0:8])
		v1 := binary.LittleEndian.Uint64(b[8:16])
		v2 := binary.LittleEndian.Uint64(b[16:24])
		v3 := binary.LittleEndian.Uint64(b[24:32])
		if v0 == 0 || v1 == 0 || v2 == 0 || v3 == 0 {
			return dst, errZeroKey
		}
		dst = append(dst, Item(v0), Item(v1), Item(v2), Item(v3))
	}
	for ; off < len(buf); off += 8 {
		v := binary.LittleEndian.Uint64(buf[off:])
		if v == 0 {
			return dst, errZeroKey
		}
		dst = append(dst, Item(v))
	}
	return dst, nil
}

// ParseWeightedRecords appends the 16-byte records of buf (whose length
// must be a multiple of WeightedRecordSize) to dst, rejecting zero keys
// and weights that are not positive and finite.
func ParseWeightedRecords(buf []byte, dst []WItem) ([]WItem, error) {
	for off := 0; off+16 <= len(buf); off += 16 {
		b := buf[off : off+16 : off+16]
		k := binary.LittleEndian.Uint64(b[0:8])
		w := math.Float64frombits(binary.LittleEndian.Uint64(b[8:16]))
		if k == 0 {
			return dst, errZeroKey
		}
		if !(w > 0) || math.IsInf(w, 0) {
			return dst, fmt.Errorf("record %d: %w: %v", off/16, ErrBadWeight, w)
		}
		dst = append(dst, WItem{Key: Item(k), Weight: w})
	}
	return dst, nil
}

// readLines materializes a text stream through one line parser.
func readLines[T any](r io.Reader, parse func([]byte) (T, bool, error)) ([]T, error) {
	var out []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		it, ok, err := parse(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", line, err)
		}
		if ok {
			out = append(out, it)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadText parses a one-item-per-line text stream. Blank lines are
// skipped; any other parse failure is an error.
func ReadText(r io.Reader) (Slice, error) { return readLines(r, ParseLine) }

// ReadWeightedText parses the weighted text form; plain unweighted files
// parse too, at weight 1.
func ReadWeightedText(r io.Reader) (WSlice, error) { return readLines(r, ParseWeightedLine) }

// WriteText writes s to w as one decimal item per line.
func WriteText(w io.Writer, s Stream) error {
	bw := bufio.NewWriter(w)
	err := s.ForEach(func(it Item) error {
		if _, err := bw.WriteString(strconv.FormatUint(uint64(it), 10)); err != nil {
			return err
		}
		return bw.WriteByte('\n')
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// WriteWeightedText writes s as one "key weight" pair per line, the
// weighted extension of the text form. The weight column is always
// present on output; ReadWeightedText also accepts weightless lines
// (implying weight 1), so unweighted files remain valid weighted input.
func WriteWeightedText(w io.Writer, s WSlice) error {
	bw := bufio.NewWriter(w)
	for _, it := range s {
		if _, err := bw.WriteString(strconv.FormatUint(uint64(it.Key), 10)); err != nil {
			return err
		}
		if err := bw.WriteByte(' '); err != nil {
			return err
		}
		if _, err := bw.WriteString(strconv.FormatFloat(it.Weight, 'g', -1, 64)); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// binaryMagic identifies the binary stream format; bumping the version
// byte invalidates old files loudly instead of misparsing them.
var binaryMagic = [4]byte{'s', 'u', 'b', '1'}

// WriteBinary writes s to w in the compact binary format: a 4-byte magic,
// a varint length, then varint items.
func WriteBinary(w io.Writer, s Stream) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(s.Len()))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	err := s.ForEach(func(it Item) error {
		n := binary.PutUvarint(buf[:], uint64(it))
		_, err := bw.Write(buf[:n])
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary parses the binary stream format produced by WriteBinary.
func ReadBinary(r io.Reader) (Slice, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("stream: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("stream: bad magic %q", magic[:])
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("stream: reading length: %w", err)
	}
	const maxReasonable = 1 << 34
	if count > maxReasonable {
		return nil, fmt.Errorf("stream: declared length %d exceeds limit", count)
	}
	out := make(Slice, 0, count)
	for i := uint64(0); i < count; i++ {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("stream: reading item %d: %w", i, err)
		}
		if v == 0 {
			return nil, fmt.Errorf("stream: item %d is 0, outside the 1-based universe", i)
		}
		out = append(out, Item(v))
	}
	return out, nil
}

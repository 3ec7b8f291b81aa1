package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
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
//     finite. ParseLine and ParseWeightedLine specify one line; ParseLines
//     and ParseWeightedLines decode a read buffer of them in one pass. A
//     canonical line — 1–19 key digits, then the newline, or one space and
//     a plain decimal weight ("12", "1.5", ".5", "5.") of at most 15 digits
//     — is converted inline; every other line (CR, blank, empty weight,
//     sign, exponent, hex, inf/nan, a longer digit run, a zero, garbage)
//     goes to its line parser unchanged, so the block parsers accept,
//     produce and report exactly what the line parsers do. ScanLines is
//     the one read / carry / line-limit / flush loop around them, shared by
//     the file readers here and the daemon.
//   - binary records: fixed 8-byte little-endian keys, the weighted form
//     16 bytes — the key followed by the weight's float64 bits — the
//     length-delimited framing a forwarding monitor POSTs.

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

// scanDigits folds the decimal digits at buf[i:] into v and returns it
// with the index of the first non-digit. A long run wraps v; callers use
// the value only after bounding the run's length.
func scanDigits(buf []byte, i int, v uint64) (uint64, int) {
	for ; i < len(buf); i++ {
		d := buf[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + uint64(d)
	}
	return v, i
}

// lineAt hands the line at buf[pos:] to its line parser — the block
// parsers' path for every line that is not canonical. It returns where
// the next line starts: pos itself when the line is bad (err is the line
// parser's) or not terminated yet.
func lineAt[T any](buf []byte, pos int, dst []T, parse func([]byte) (T, bool, error)) (_ []T, next int, err error) {
	nl := bytes.IndexByte(buf[pos:], '\n')
	if nl < 0 {
		return dst, pos, nil
	}
	it, ok, err := parse(buf[pos : pos+nl])
	if err != nil {
		return dst, pos, err
	}
	if ok {
		dst = append(dst, it)
	}
	return dst, pos + nl + 1, nil
}

// ParseLines appends the items of buf's '\n'-terminated lines to dst in
// one forward pass, stopping at a bad line, at an unterminated tail or
// when dst is full (len == cap: it never grows dst). It returns how many
// bytes and lines it consumed — on error, those before the bad line, and
// ParseLine's error for that one.
func ParseLines(buf []byte, dst []Item) (_ []Item, pos, lines int, err error) {
	for len(dst) < cap(dst) {
		// Up to 19 digits cannot overflow a uint64.
		key, i := scanDigits(buf, pos, 0)
		if n := i - pos; n >= 1 && n <= 19 && key != 0 && i < len(buf) && buf[i] == '\n' {
			dst = append(dst, Item(key))
			pos, lines = i+1, lines+1
			continue
		}
		var next int
		if dst, next, err = lineAt(buf, pos, dst, ParseLine); next == pos {
			break
		}
		pos, lines = next, lines+1
	}
	return dst, pos, lines, err
}

// pow10 holds the powers of ten a canonical weight can be scaled by.
var pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// ParseWeightedLines is ParseLines for the weighted text form, with
// ParseWeightedLine behind it.
func ParseWeightedLines(buf []byte, dst []WItem) (_ []WItem, pos, lines int, err error) {
	for len(dst) < cap(dst) {
		key, i := scanDigits(buf, pos, 0)
		if n := i - pos; n >= 1 && n <= 19 && key != 0 && i < len(buf) {
			if buf[i] == '\n' {
				dst = append(dst, WItem{Key: Item(key), Weight: 1})
				pos, lines = i+1, lines+1
				continue
			}
			if buf[i] == ' ' {
				// digits[.digits], at most 15 digits in all: the mantissa is
				// below 2^53 and the power of ten at most 10^15, both exact
				// in a float64, so their one correctly-rounded quotient is
				// the float64 nearest the decimal — the bits
				// strconv.ParseFloat returns (Clinger's exact case).
				mant, j := scanDigits(buf, i+1, 0)
				digits, frac := j-(i+1), 0
				if j < len(buf) && buf[j] == '.' {
					dot := j
					mant, j = scanDigits(buf, dot+1, mant)
					frac = j - (dot + 1)
					digits += frac
				}
				if digits >= 1 && digits <= 15 && mant != 0 && j < len(buf) && buf[j] == '\n' {
					dst = append(dst, WItem{Key: Item(key), Weight: float64(mant) / pow10[frac&15]})
					pos, lines = j+1, lines+1
					continue
				}
			}
		}
		var next int
		if dst, next, err = lineAt(buf, pos, dst, ParseWeightedLine); next == pos {
			break
		}
		pos, lines = next, lines+1
	}
	return dst, pos, lines, err
}

// lineBufBytes is the file readers' read buffer, and with it their line
// limit: the daemon's scratch size, so both refuse the same lines.
const lineBufBytes = 64 << 10

// ScanLines reads r to its end through buf and decodes its lines with
// parse (ParseLines or ParseWeightedLines) into dst. It is the one line
// loop of both text forms: a partial trailing line is carried between
// reads, the final line may omit its newline, and a line that does not
// fit buf is refused. Whenever dst is full, and after each read's lines,
// flush is handed the items decoded so far and returns the slice to
// continue into (with room for at least one more); the items decoded
// since the last flush come back as the result, on error too. Errors
// name the 1-based line.
func ScanLines[T any](r io.Reader, buf []byte, dst []T,
	parse func(buf []byte, dst []T) ([]T, int, int, error), flush func([]T) []T) ([]T, error) {
	line, fill := 0, 0 // lines consumed; bytes of a partial line carried between reads
	for {
		n, rerr := r.Read(buf[fill:])
		end, pos := fill+n, 0
		for {
			var used, lines int
			var err error
			dst, used, lines, err = parse(buf[pos:end], dst)
			pos, line = pos+used, line+lines
			if err != nil {
				return dst, fmt.Errorf("line %d: %w", line+1, err)
			}
			if len(dst) < cap(dst) {
				break // out of complete lines
			}
			dst = flush(dst)
		}
		fill = copy(buf, buf[pos:end])
		switch {
		case rerr != nil && rerr != io.EOF:
			return dst, rerr
		case fill == len(buf):
			return dst, fmt.Errorf("line %d exceeds the %d-byte line limit", line+1, len(buf))
		case rerr == io.EOF:
			if fill > 0 { // final line without a newline
				var err error
				buf[fill] = '\n'
				if dst, _, _, err = parse(buf[:fill+1], dst); err != nil {
					return dst, fmt.Errorf("line %d: %w", line+1, err)
				}
			}
			return dst, nil
		}
		// Hand over what this read produced while the next one is in flight.
		dst = flush(dst)
	}
}

// readLines materializes a text stream through one block parser.
func readLines[T any](r io.Reader, parse func([]byte, []T) ([]T, int, int, error)) ([]T, error) {
	out, err := ScanLines(r, make([]byte, lineBufBytes), nil, parse, func(s []T) []T { return slices.Grow(s, 1) })
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return out, nil
}

// ReadText parses a one-item-per-line text stream. Blank lines are
// skipped; any other parse failure is an error.
func ReadText(r io.Reader) (Slice, error) { return readLines(r, ParseLines) }

// ReadWeightedText parses the weighted text form; plain unweighted files
// parse too, at weight 1.
func ReadWeightedText(r io.Reader) (WSlice, error) { return readLines(r, ParseWeightedLines) }

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

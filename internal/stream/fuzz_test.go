package stream

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// Native fuzz targets: under plain `go test` these run their seed corpus;
// under `go test -fuzz` they explore. Parsers must never panic and
// accepted inputs must round-trip.

func FuzzReadText(f *testing.F) {
	f.Add([]byte("1\n2\n3\n"))
	f.Add([]byte(""))
	f.Add([]byte("999999999999999999\n"))
	f.Add([]byte("0\n"))
	f.Add([]byte("-1\n"))
	f.Add([]byte("abc\n1\n"))
	f.Add([]byte("7 2.5\r\n8\n\n9 1e3\n10"))
	f.Add([]byte("5 NaN\n5 Inf\n5 0\n5 -1\n5 \n"))
	f.Add([]byte("5 0x1p-1074\n6 1e-400\n7 1e400\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadText(bytes.NewReader(data))
		ws, werr := ReadWeightedText(bytes.NewReader(data))
		if err == nil {
			// Accepted stream: every item valid and re-encodable, and the
			// same file is a weighted stream of the same keys at weight 1.
			var buf bytes.Buffer
			if err := WriteText(&buf, s); err != nil {
				t.Fatalf("accepted stream failed to encode: %v", err)
			}
			back, err := ReadText(&buf)
			if err != nil || !slices.Equal(back, s) {
				t.Fatalf("round trip changed the stream (err %v)", err)
			}
			if slices.Contains(s, 0) {
				t.Fatal("parser accepted item 0")
			}
			if werr != nil || !slices.Equal(ws, lift(s)) {
				t.Fatalf("plain stream read as weighted: err %v", werr)
			}
		}
		if werr != nil {
			return
		}
		for _, it := range ws {
			if it.Key == 0 || !(it.Weight > 0) || math.IsInf(it.Weight, 0) {
				t.Fatalf("weighted parser accepted %+v", it)
			}
		}
		var buf bytes.Buffer
		if err := WriteWeightedText(&buf, ws); err != nil {
			t.Fatalf("accepted weighted stream failed to encode: %v", err)
		}
		if back, err := ReadWeightedText(&buf); err != nil || !slices.Equal(back, ws) {
			t.Fatalf("weighted round trip changed the stream (err %v)", err)
		}
	})
}

// refParseLines is the per-line loop the block parsers replaced, kept as
// their specification: find the newline, hand the line to the line
// parser, stop at a bad line, an unterminated tail or a full dst.
func refParseLines[T any](buf []byte, dst []T, parse func([]byte) (T, bool, error)) (_ []T, pos, lines int, err error) {
	for len(dst) < cap(dst) {
		nl := bytes.IndexByte(buf[pos:], '\n')
		if nl < 0 {
			break
		}
		it, ok, err := parse(buf[pos : pos+nl])
		if err != nil {
			return dst, pos, lines, err
		}
		if ok {
			dst = append(dst, it)
		}
		pos, lines = pos+nl+1, lines+1
	}
	return dst, pos, lines, nil
}

// itemBits and witemBits are what "the same item" means below: weights
// compare by their bits, not their values.
func itemBits(it Item) [2]uint64 { return [2]uint64{uint64(it)} }
func witemBits(it WItem) [2]uint64 {
	return [2]uint64{uint64(it.Key), math.Float64bits(it.Weight)}
}

// matchLineParser runs a block parser and the reference loop over data
// with the same dst capacity and requires the same items (bit for bit),
// bytes and lines consumed and error text. It returns the block parser's
// item count, bytes consumed and error.
func matchLineParser[T any](t *testing.T, data []byte, room int, bits func(T) [2]uint64,
	block func([]byte, []T) ([]T, int, int, error), line func([]byte) (T, bool, error)) (int, int, error) {
	t.Helper()
	got, pos, lines, err := block(data, make([]T, 0, room))
	want, wpos, wlines, werr := refParseLines(data, make([]T, 0, room), line)
	if pos != wpos || lines != wlines {
		t.Fatalf("room %d: consumed %d bytes, %d lines; line parser %d bytes, %d lines", room, pos, lines, wpos, wlines)
	}
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("room %d: error %v, line parser's %v", room, err, werr)
	}
	if len(got) != len(want) || cap(got) != room {
		t.Fatalf("room %d: %d items (cap %d), line parser %d", room, len(got), cap(got), len(want))
	}
	for i := range want {
		if bits(got[i]) != bits(want[i]) {
			t.Fatalf("room %d: item %d is %v, line parser's %v", room, i, got[i], want[i])
		}
	}
	return len(got), pos, err
}

// lineBoundaryCorpus sits on every edge of the block parsers' inline
// grammar: each entry is one line, seeded alone and in one joined body.
var lineBoundaryCorpus = []string{
	"1", "007", "0", "000", "",
	"9999999999999999999", "10000000000000000000", "00000000000000000001", // 19 vs 20 key digits
	"18446744073709551615", "18446744073709551616",
	"5 123456789012345", "5 1234567890123456", "5 12345678.9012345", "5 12345678.90123456", // 15 vs 16 mantissa digits
	"5 0.00000000000001", "5 0.000000000000001", "5 000000000000001", "5 0000000000000001",
	"5 9007199254740993", "5 0.1", "5 0.3", "5 123.456", "5 1.23457e+06", "5 2.5",
	"5 .5", "5 5.", "5 .", "5 0.0", "5 0", "5 ", "5  2", "5 1 2", "5\t2", "5 2 ", " 5", "5 1.2.3", "5 1..2",
	"5 +1", "5 -1", "+5", "-5", "5 1e3", "5 1E-3", "5 0x1p-2", "5 1_0", "5 nan", "5 NaN", "5 +Inf", "5 inf", "5 heavy",
	"0 2", "x 2", "5\r", "5 2.5\r", "\r", "5 2\r\r",
}

func FuzzParseLinesMatchLineParser(f *testing.F) {
	for _, line := range lineBoundaryCorpus {
		f.Add([]byte(line + "\n"))
	}
	f.Add([]byte(strings.Join(lineBoundaryCorpus[:24], "\n")))          // good lines, unterminated tail
	f.Add([]byte(strings.Join(lineBoundaryCorpus, "\r\n") + "\n\n\n7")) // CRLF, blank lines, a bad line
	f.Fuzz(func(t *testing.T, data []byte) {
		// Room for every line, for none, and for a few: cap(dst) stops
		// the parser mid-buffer.
		for _, room := range []int{len(data) + 1, 0, 1, 3} {
			matchLineParser(t, data, room, itemBits, ParseLines, ParseLine)
			matchLineParser(t, data, room, witemBits, ParseWeightedLines, ParseWeightedLine)
		}
	})
}

package stream

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

// lift is s as a weighted stream: every item at weight 1.
func lift(s Slice) WSlice {
	out := make(WSlice, len(s))
	for i, it := range s {
		out[i] = WItem{Key: it, Weight: 1}
	}
	return out
}

func TestTextRoundTrip(t *testing.T) {
	s := Slice{1, 42, 7, 1 << 40}
	var buf bytes.Buffer
	if err := WriteText(&buf, s); err != nil {
		t.Fatal(err)
	}
	plain := buf.String()
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, s) {
		t.Fatalf("round trip %v, want %v", got, s)
	}

	// The weighted form: 'g'-format weights come back bit-exact, and the
	// plain file above is valid weighted input at weight 1.
	ws := WSlice{{1, 0.1}, {42, 1}, {7, 1e-300}, {1 << 40, math.MaxFloat64}, {9, 1500}, {3, math.SmallestNonzeroFloat64}}
	if err := WriteWeightedText(&buf, ws); err != nil {
		t.Fatal(err)
	}
	if wgot, err := ReadWeightedText(&buf); err != nil || !slices.Equal(wgot, ws) {
		t.Fatalf("weighted round trip %v (err %v), want %v", wgot, err, ws)
	}
	if wgot, err := ReadWeightedText(strings.NewReader(plain)); err != nil || !slices.Equal(wgot, lift(s)) {
		t.Fatalf("plain file read as weighted: %v (err %v), want %v", wgot, err, lift(s))
	}
}

func TestReadTextSkipsBlankLines(t *testing.T) {
	got, err := ReadText(strings.NewReader("1\n\n2\n\n\n3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	// CRLF files, a weightless line, an empty weight column and a final
	// line without its newline, in the weighted form.
	wgot, err := ReadWeightedText(strings.NewReader("7 2.5\r\n8\r\n\r\n\n9 \n10 1e3"))
	if want := (WSlice{{7, 2.5}, {8, 1}, {9, 1}, {10, 1000}}); err != nil || !slices.Equal(wgot, want) {
		t.Fatalf("got %v (err %v), want %v", wgot, err, want)
	}
}

func TestReadTextErrors(t *testing.T) {
	for _, bad := range []string{"1\nxyz\n", "0\n", "-5\n", "+5\n", " 5\n", "99999999999999999999\n", "5 2\n"} {
		if _, err := ReadText(strings.NewReader(bad)); err == nil {
			t.Fatalf("ReadText accepted %q", bad)
		}
	}
	for _, c := range []struct {
		bad       string
		badWeight bool
	}{
		{"1\nxyz 2\n", false}, {"0 2\n", false}, {"-5 2\n", false},
		{"5 NaN\n", true}, {"5 Inf\n", true}, {"5 -Inf\n", true}, {"5 0\n", true}, {"5 -1\n", true},
		{"5 heavy\n", true}, {"5  2\n", true}, {"5 2 \n", true},
	} {
		_, err := ReadWeightedText(strings.NewReader("3 1\n" + c.bad))
		if err == nil || !strings.Contains(err.Error(), "line 2") && !strings.Contains(err.Error(), "line 3") {
			t.Fatalf("ReadWeightedText(%q) error = %v, want one naming the line", c.bad, err)
		}
		if errors.Is(err, ErrBadWeight) != c.badWeight {
			t.Fatalf("ReadWeightedText(%q) error = %v, ErrBadWeight = %v", c.bad, err, !c.badWeight)
		}
	}
	// A line too long for the read buffer is refused where the daemon
	// refuses it, by number.
	long := "1\n\n" + strings.Repeat("0", lineBufBytes-1) + "7\n"
	for _, read := range []func() error{
		func() error { _, err := ReadText(strings.NewReader(long)); return err },
		func() error { _, err := ReadWeightedText(strings.NewReader(long)); return err },
	} {
		if err := read(); err == nil || err.Error() != "stream: line 3 exceeds the 65536-byte line limit" {
			t.Fatalf("over-long line: error = %v", err)
		}
	}
	if got, err := ReadText(strings.NewReader(long[:3] + long[4:])); err != nil || !slices.Equal(got, Slice{1, 7}) {
		t.Fatalf("longest legal line: got %v, err %v", got, err)
	}
	// A read failure is not the end of the stream: the cut-off line is
	// not parsed and the cause comes back.
	cut := io.MultiReader(strings.NewReader("1\n2"), iotest.ErrReader(io.ErrClosedPipe))
	if _, err := ReadText(cut); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read failure: error = %v", err)
	}
}

// TestParseLinesGeneratedMatchLineParser is the differential fuzz
// target's check over generated digit strings rather than mutated bytes:
// keys of 1–21 digits and weights of 1–17 digits with the point anywhere,
// the region where the inline conversion must hand back strconv's bits or
// step aside, plus the %.6g and shortest-round-trip renderings the
// benchmark and WriteWeightedText produce.
func TestParseLinesGeneratedMatchLineParser(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	digits := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + r.Intn(10))
		}
		return b
	}
	const lines = 100_000
	var plain, weighted []byte
	for i := 0; i < lines; i++ {
		key := digits(1 + r.Intn(21))
		if r.Intn(4) > 0 {
			key = digits(1 + r.Intn(10))
		}
		plain = append(append(plain, key...), '\n')
		weighted = append(append(weighted, key...), ' ')
		switch w := math.Exp(r.NormFloat64() * 4); r.Intn(4) {
		case 0:
			weighted = strconv.AppendFloat(weighted, w, 'g', 6, 64)
		case 1:
			weighted = strconv.AppendFloat(weighted, w, 'g', -1, 64)
		default:
			d := digits(1 + r.Intn(17))
			point := r.Intn(len(d) + 2) // past the end: no point at all
			for j, c := range d {
				if j == point {
					weighted = append(weighted, '.')
				}
				weighted = append(weighted, c)
			}
			if point == len(d) {
				weighted = append(weighted, '.')
			}
		}
		weighted = append(weighted, '\n')
	}
	if good := matchLineParserThrough(t, plain, itemBits, ParseLines, ParseLine); good < lines/2 {
		t.Fatalf("only %d of %d generated keys are good", good, lines)
	}
	if good := matchLineParserThrough(t, weighted, witemBits, ParseWeightedLines, ParseWeightedLine); good < lines/2 {
		t.Fatalf("only %d of %d generated lines are good", good, lines)
	}
}

// matchLineParserThrough walks a whole body of terminated lines, a small
// dst at a time and stepping over each bad line, and returns how many
// items it held.
func matchLineParserThrough[T any](t *testing.T, body []byte, bits func(T) [2]uint64,
	block func([]byte, []T) ([]T, int, int, error), line func([]byte) (T, bool, error)) (good int) {
	t.Helper()
	for len(body) > 0 {
		items, pos, err := matchLineParser(t, body, 256, bits, block, line)
		if err != nil {
			pos += bytes.IndexByte(body[pos:], '\n') + 1
		}
		good, body = good+items, body[pos:]
	}
	return good
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		s := make(Slice, 0, len(raw))
		for _, v := range raw {
			s = append(s, Item(uint64(v)+1)) // keep 1-based
		}
		var tb bytes.Buffer
		if err := WriteText(&tb, s); err != nil {
			return false
		}
		t1, err := ReadText(&tb)
		return err == nil && slices.Equal(t1, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

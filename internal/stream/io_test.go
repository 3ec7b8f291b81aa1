package stream

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

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
	if wgot, err := ReadWeightedText(strings.NewReader(plain)); err != nil || !slices.Equal(wgot, Lift(s)) {
		t.Fatalf("plain file read as weighted: %v (err %v), want %v", wgot, err, Lift(s))
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
}

func TestBinaryRoundTrip(t *testing.T) {
	s := Slice{1, 2, 3, 1 << 50, 9999999}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("length %d, want %d", len(got), len(s))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("item %d mismatch", i)
		}
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Slice{}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("nope....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	s := Slice{1, 2, 3}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)-1])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestBinaryRejectsZeroItem(t *testing.T) {
	// Hand-build a stream containing item 0.
	var buf bytes.Buffer
	buf.Write(binaryMagic[:])
	buf.WriteByte(1) // count = 1
	buf.WriteByte(0) // item = 0
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("item 0 accepted")
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		s := make(Slice, 0, len(raw))
		for _, v := range raw {
			s = append(s, Item(uint64(v)+1)) // keep 1-based
		}
		var tb, bb bytes.Buffer
		if err := WriteText(&tb, s); err != nil {
			return false
		}
		if err := WriteBinary(&bb, s); err != nil {
			return false
		}
		t1, err := ReadText(&tb)
		if err != nil {
			return false
		}
		t2, err := ReadBinary(&bb)
		if err != nil {
			return false
		}
		if len(t1) != len(s) || len(t2) != len(s) {
			return false
		}
		for i := range s {
			if t1[i] != s[i] || t2[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

package stream

import (
	"bytes"
	"math"
	"slices"
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
			if werr != nil || !slices.Equal(ws, Lift(s)) {
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

func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteBinary(&seed, Slice{1, 2, 3, 1 << 40})
	f.Add(seed.Bytes())
	f.Add([]byte("sub1"))
	f.Add([]byte(""))
	f.Add([]byte("nope1234"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			t.Fatalf("accepted stream failed to encode: %v", err)
		}
		back, err := ReadBinary(&buf)
		if err != nil || len(back) != len(s) {
			t.Fatalf("round trip failed: %v (%d vs %d)", err, len(back), len(s))
		}
	})
}

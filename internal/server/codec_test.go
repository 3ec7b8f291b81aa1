package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"substream/internal/stream"
)

// wbinBody encodes s in the weighted binary ingest format (16-byte
// records); the text bodies are stream's own writers'.
func wbinBody(s stream.WSlice) []byte {
	buf := make([]byte, 0, 16*len(s))
	for _, it := range s {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(it.Key))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.Weight))
	}
	return buf
}

func textBody(s stream.WSlice) []byte {
	var b bytes.Buffer
	stream.WriteText(&b, s.Keys())
	return b.Bytes()
}

func wtextBody(s stream.WSlice) []byte {
	var b bytes.Buffer
	stream.WriteWeightedText(&b, s)
	return b.Bytes()
}

// seq is n items with distinct keys and non-trivial weights.
func seq(n int) stream.WSlice {
	s := make(stream.WSlice, n)
	for i := range s {
		s[i] = stream.WItem{Key: stream.Item(i + 1), Weight: float64(i%97) + 0.5}
	}
	return s
}

// format is one cell of {plain, weighted} × {records, lines}, type-erased
// so each decode behaviour below is tested by one routine: items cross
// the boundary as WItems (plain formats drop the weights on encode and
// come back at weight 1).
type format struct {
	name     string
	weighted bool
	lines    bool
	perChunk int // pooled chunk capacity, in items
	encode   func(stream.WSlice) []byte
	// decode runs body through the format's decode loop on a POISONED
	// pool: a released chunk is zeroed before it re-enters the pool. sink
	// gets, per chunk, a view that re-reads the chunk's current contents
	// and its release (a no-op for lines, whose one chunk stays with the
	// decoder) — so a view taken after a premature release, or of a
	// recycled chunk, shows key 0 or someone else's items.
	decode func(body io.Reader, sink func(view func() stream.WSlice, release func())) (int, error)
	// drain decodes on the production pool into a sink that releases at
	// once and looks at nothing: the allocation probe.
	drain func(body io.Reader) (int, error)
}

func newFormat[T any](name string, w itemWire[T], lines bool, lift func(T) stream.WItem, encode func(stream.WSlice) []byte) format {
	f := format{name: name, lines: lines, encode: encode,
		weighted: w.recordSize == stream.WeightedRecordSize,
		perChunk: scratchBytes / w.recordSize}
	poisoned := w
	poisoned.chunks = new(chunkPool[T])
	poisoned.chunks.pool.New = func() any {
		c := &chunk[T]{items: make([]T, 0, f.perChunk)}
		c.release = func() { clear(c.items[:f.perChunk]); poisoned.chunks.pool.Put(c) }
		return c
	}
	view := func(c []T) func() stream.WSlice {
		return func() stream.WSlice {
			out := make(stream.WSlice, len(c))
			for i, it := range c {
				out[i] = lift(it)
			}
			return out
		}
	}
	if lines {
		f.decode = func(body io.Reader, sink func(func() stream.WSlice, func())) (int, error) {
			return decodeLines(body, poisoned, func(c []T) { sink(view(c), func() {}) })
		}
		f.drain = func(body io.Reader) (int, error) { return decodeLines(body, w, func([]T) {}) }
	} else {
		f.decode = func(body io.Reader, sink func(func() stream.WSlice, func())) (int, error) {
			return decodeRecords(body, poisoned, func(c []T, release func()) { sink(view(c), release) })
		}
		f.drain = func(body io.Reader) (int, error) {
			return decodeRecords(body, w, func(_ []T, release func()) { release() })
		}
	}
	return f
}

var (
	liftKey         = func(it stream.Item) stream.WItem { return stream.WItem{Key: it, Weight: 1} }
	liftNone        = func(it stream.WItem) stream.WItem { return it }
	plainRecords    = newFormat("plain-records", plainWire, false, liftKey, func(s stream.WSlice) []byte { return binBody(s.Keys()) })
	weightedRecords = newFormat("weighted-records", weightedWire, false, liftNone, wbinBody)
	plainLines      = newFormat("plain-lines", plainWire, true, liftKey, textBody)
	weightedLines   = newFormat("weighted-lines", weightedWire, true, liftNone, wtextBody)
	formats         = []format{plainRecords, weightedRecords, plainLines, weightedLines}
)

// carried is what of s survives a trip through the format.
func (f format) carried(s stream.WSlice) stream.WSlice {
	if f.weighted {
		return s
	}
	return lift(s.Keys())
}

// lift is s as a weighted stream: every item at weight 1.
func lift(s stream.Slice) stream.WSlice {
	out := make(stream.WSlice, len(s))
	for i, it := range s {
		out[i] = liftKey(it)
	}
	return out
}

// collect decodes body, releasing every chunk as soon as it is read.
func (f format) collect(body []byte) (got stream.WSlice, n int, err error) {
	n, err = f.decode(bytes.NewReader(body), func(view func() stream.WSlice, release func()) {
		got = append(got, view()...)
		release()
	})
	return got, n, err
}

func sameItems(t *testing.T, got, want stream.WSlice) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d decoded as %+v, want %+v", i, got[i], want[i])
		}
	}
}

// testRoundTrip decodes a body that spans several pooled chunks and ends
// off a chunk boundary (so the carry-between-reads path runs). Chunks
// for which hold reports true are kept unreleased until the decode has
// returned and only read then — the ownership hand-off: an unreleased
// chunk must stay exactly what the decoder produced while its released
// neighbours are zeroed, recycled and refilled around it.
func testRoundTrip(t *testing.T, f format, hold func(chunk int) bool) {
	items := seq(5*f.perChunk + 617)
	var parts []func() stream.WSlice
	var releases []func()
	n, err := f.decode(bytes.NewReader(f.encode(items)), func(view func() stream.WSlice, release func()) {
		if hold(len(parts)) {
			parts, releases = append(parts, view), append(releases, release)
			return
		}
		now := view()
		parts = append(parts, func() stream.WSlice { return now })
		release()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !f.lines && len(parts) != 6 {
		t.Fatalf("sink received %d chunks, want 6", len(parts))
	}
	var got stream.WSlice
	for _, part := range parts {
		got = append(got, part()...)
	}
	if n != len(items) {
		t.Fatalf("reported %d items, want %d", n, len(items))
	}
	sameItems(t, got, f.carried(items))
	for _, release := range releases {
		release()
	}
}

func holdNone(int) bool { return false }

func TestDecodeBinaryStreamRoundTrip(t *testing.T) { testRoundTrip(t, plainRecords, holdNone) }
func TestDecodeWeightedBinaryStreamRoundTrip(t *testing.T) {
	testRoundTrip(t, weightedRecords, holdNone)
}

// TestDecodeBinaryStreamOwnedRoundTrip holds every chunk of the body in
// flight at once, the way a slow shard would.
func TestDecodeBinaryStreamOwnedRoundTrip(t *testing.T) {
	testRoundTrip(t, plainRecords, func(int) bool { return true })
}

// TestDecodeBinaryStreamOwnedChunksDoNotAlias pins the non-aliasing
// guarantee the ownership hand-off rests on, for both record formats:
// with every other chunk released (hence poisoned and reused) at once,
// the held ones must still read back intact after the decode returned.
func TestDecodeBinaryStreamOwnedChunksDoNotAlias(t *testing.T) {
	for _, f := range []format{plainRecords, weightedRecords} {
		t.Run(f.name, func(t *testing.T) {
			testRoundTrip(t, f, func(chunk int) bool { return chunk%2 == 1 })
		})
	}
}

// testRejects decodes a corrupt body: the error must name the defect,
// and the reported count must be exactly what the sink saw — consumed
// items if consumed >= 0.
func testRejects(t *testing.T, f format, body []byte, wantErr string, consumed int) {
	t.Helper()
	got, n, err := f.collect(body)
	if err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("error = %v, want substring %q", err, wantErr)
	}
	if n != len(got) || (consumed >= 0 && n != consumed) {
		t.Fatalf("reported %d ingested items, sink saw %d, want %d", n, len(got), consumed)
	}
}

func TestDecodeBinaryStreamRejectsCorruption(t *testing.T) {
	f := plainRecords
	t.Run("truncated", func(t *testing.T) {
		testRejects(t, f, []byte{1, 2, 3}, "truncated mid-record", 0)
	})
	t.Run("zero-item", func(t *testing.T) {
		// Items before the bad record in the same chunk are not handed
		// to the sink.
		testRejects(t, f, binBody(stream.Slice{5, 6, 0, 7}), "1-based universe", 0)
	})
	t.Run("zero-item-after-full-chunks", func(t *testing.T) {
		items := seq(f.perChunk + 4)
		items[len(items)-1].Key = 0
		testRejects(t, f, f.encode(items), "1-based universe", f.perChunk)
	})
}

func TestDecodeWeightedBinaryStreamRejectsCorruption(t *testing.T) {
	f := weightedRecords
	t.Run("truncated", func(t *testing.T) {
		testRejects(t, f, []byte{1, 2, 3}, "truncated mid-record", 0)
	})
	t.Run("half-record", func(t *testing.T) {
		// A full key with its weight cut off is still a truncation.
		testRejects(t, f, wbinBody(stream.WSlice{{Key: 5, Weight: 2}})[:12], "truncated mid-record", 0)
	})
	t.Run("zero-key", func(t *testing.T) {
		testRejects(t, f, wbinBody(stream.WSlice{{Key: 5, Weight: 1}, {Key: 0, Weight: 1}, {Key: 7, Weight: 1}}), "1-based universe", 0)
	})
	for _, bad := range []float64{0, -1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprintf("weight-%v", bad), func(t *testing.T) {
			testRejects(t, f, wbinBody(stream.WSlice{{Key: 5, Weight: 1}, {Key: 6, Weight: bad}}), stream.ErrBadWeight.Error(), 0)
		})
	}
}

// TestDecodeBinaryStreamOwnedConsumedPrefix pins consumed-prefix error
// reporting in every format: a bad item after one full chunk and three
// good items leaves the full chunk consumed — plus, for lines, the good
// items before the bad line, which the line loop hands over on its way
// out (a record chunk with a bad record in it is dropped whole).
func TestDecodeBinaryStreamOwnedConsumedPrefix(t *testing.T) {
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			items := seq(f.perChunk + 4)
			items[len(items)-1].Key = 0
			consumed := f.perChunk
			if f.lines {
				consumed += 3
			}
			testRejects(t, f, f.encode(items), "1-based universe", consumed)
		})
	}
}

func TestDecodeBinaryStreamEmptyBody(t *testing.T) {
	for _, f := range formats {
		if got, n, err := f.collect(nil); err != nil || n != 0 || len(got) != 0 {
			t.Fatalf("%s: empty body: n=%d err=%v sink=%d", f.name, n, err, len(got))
		}
	}
}

// TestDecodeTextStreamMatchesReadText pins the daemon's line loop to the
// file readers in internal/stream, body for body and in both formats:
// they accept the same bodies with the same items and reject the same
// ones — every plain body is also a weighted one.
func TestDecodeTextStreamMatchesReadText(t *testing.T) {
	plain := []string{
		"",
		"1\n",
		"1\n2\n3\n",
		"1\n\n2\n\n\n3\n",
		"7",                         // final line without newline
		"1\r\n2\r\n3\r",             // CRLF line endings, trailing CR on last line
		"18446744073709551615\n1\n", // max uint64
		"1\nxyz\n", "0\n", "-5\n", "99999999999999999999999\n", " 1\n",
		// The longest line both accept and the shortest both refuse.
		strings.Repeat("0", scratchBytes-2) + "7\n", strings.Repeat("0", scratchBytes-1) + "7\n",
	}
	// A multi-chunk body: enough lines to overflow one pooled item chunk
	// and one 64 KiB read buffer several times.
	var big strings.Builder
	for i := 1; i <= 3*plainLines.perChunk; i++ {
		big.WriteString(strings.Repeat("9", 1+i%3))
		big.WriteByte('\n')
	}
	plain = append(plain, big.String())
	weighted := append([]string{
		"7 2.5\n8\r\n\n9 1e3\n10", "5 0x1p-2\n", "5 \n",
		"5 0\n", "5 -1\n", "5 NaN\n", "5 Inf\n", "5  2\n", "5 2 \n", "0 2\n", "x 2\n",
	}, plain...)

	check := func(f format, bodies []string, read func(io.Reader) (stream.WSlice, error)) {
		for i, body := range bodies {
			want, werr := read(strings.NewReader(body))
			got, n, err := f.collect([]byte(body))
			if (err != nil) != (werr != nil) {
				t.Fatalf("%s body %d (%.20q): line loop err = %v, stream reader err = %v", f.name, i, body, err, werr)
			}
			if err == nil {
				if n != len(want) {
					t.Fatalf("%s body %d: reported %d items, want %d", f.name, i, n, len(want))
				}
				sameItems(t, got, want)
			}
		}
	}
	check(plainLines, plain, func(r io.Reader) (stream.WSlice, error) {
		s, err := stream.ReadText(r)
		return lift(s), err
	})
	check(weightedLines, weighted, stream.ReadWeightedText)
}

func TestDecodeTextStreamErrors(t *testing.T) {
	cases := []struct {
		body string
		want string
	}{
		{"1\nxyz\n", "line 2: invalid decimal item"},
		{"1\n-2\n", "invalid decimal item"},
		{"1\n0\n2\n", "1-based universe"},
		{"99999999999999999999999\n", "overflows"},
		{"1\n" + strings.Repeat("9", scratchBytes+1) + "\n", "line limit"},
	}
	for _, f := range []format{plainLines, weightedLines} {
		for _, c := range cases {
			if _, _, err := f.collect([]byte(c.body)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s body %.20q: err = %v, want substring %q", f.name, c.body, err, c.want)
			}
		}
	}
}

// TestDecodeTextStreamLineNumbers pins which line an error names and
// what was consumed before it: blank and CRLF lines count, a final line
// needs no newline, and the good items before the bad line reach the
// sink.
func TestDecodeTextStreamLineNumbers(t *testing.T) {
	full := string(textBody(seq(plainLines.perChunk)))
	wfull := string(wtextBody(seq(weightedLines.perChunk)))
	cases := []struct {
		f        format
		body     string
		want     string
		consumed int
	}{
		{plainLines, "1\n\n\r\n2\r\n\nx\n3\n", `line 6: invalid decimal item "x"`, 2},
		{weightedLines, "1 2\n\n\r\n2\r\n\n3 x\n4\n", `line 6: weight is not positive and finite: "x"`, 2},
		{weightedLines, "1 .5\n2 5.\n3 .\n", `line 3: weight is not positive and finite: "."`, 2},
		{plainLines, "1\n2\n\n0", "line 4: item 0 is outside", 2},
		{plainLines, "1\n\n" + strings.Repeat("9", scratchBytes), "line 3 exceeds the 65536-byte line limit", 1},
		// A bad line exactly one item past a full chunk: the chunk went
		// to the sink whole and nothing else did.
		{plainLines, full + "0\n", fmt.Sprintf("line %d: item 0 is outside", plainLines.perChunk+1), plainLines.perChunk},
		{weightedLines, wfull + "7 -1\n", fmt.Sprintf("line %d: weight is not positive and finite: -1", weightedLines.perChunk+1), weightedLines.perChunk},
	}
	for _, c := range cases {
		testRejects(t, c.f, []byte(c.body), c.want, c.consumed)
	}

	// The handler reports both numbers.
	a := NewAgent(AgentConfig{ID: "line-numbers"})
	defer a.Close()
	if err := a.CreateStream("s", StreamConfig{Stat: "varopt", P: 1, Presampled: true}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/s/ingest", strings.NewReader(wfull+"\r\n7 -1\n"))
	req.Header.Set("Content-Type", ContentTypeTextWeighted)
	rr := httptest.NewRecorder()
	a.Handler().ServeHTTP(rr, req)
	want := fmt.Sprintf("bad ingest body after %d items: line %d: weight is not positive and finite: -1",
		weightedLines.perChunk, weightedLines.perChunk+2)
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), want) {
		t.Fatalf("status %d, body %s; want 400 with %q", rr.Code, rr.Body.String(), want)
	}
}

// TestDecodeTextStreamAnyReadSizes feeds one body — canonical and
// fallback lines, several chunks, an unterminated tail — through readers
// that split it differently: the carry between reads must not show.
func TestDecodeTextStreamAnyReadSizes(t *testing.T) {
	for _, f := range []format{plainLines, weightedLines} {
		body := append(f.encode(seq(2*f.perChunk+100)), "\n7\r\n\r\n18446744073709551615\n00000000000000000009\n8"...)
		items := 2*f.perChunk + 100 + 4
		if f.weighted {
			body = append(body, " 1e3\n9 0x1p-2\n10 \n11 .5\n12 0.1234567890123456\n13 2.5"...)
			items += 5
		}
		want, n, err := f.collect(body)
		if err != nil || n != len(want) || n != items {
			t.Fatalf("%s: whole-buffer read decoded %d items (sink saw %d), err %v", f.name, n, len(want), err)
		}
		for name, wrap := range map[string]func(io.Reader) io.Reader{
			"one-byte": iotest.OneByteReader, "half": iotest.HalfReader, "data-err": iotest.DataErrReader,
		} {
			var got stream.WSlice
			n, err := f.decode(wrap(bytes.NewReader(body)), func(view func() stream.WSlice, _ func()) { got = append(got, view()...) })
			if err != nil || n != len(want) {
				t.Fatalf("%s through a %s reader: %d items, err %v; want %d", f.name, name, n, err, len(want))
			}
			sameItems(t, got, want)
		}
	}
}

func TestDecodeWeightedTextStream(t *testing.T) {
	// Weight column present, absent (default 1), CRLF line, blank line,
	// and a final line without its newline.
	got, n, err := weightedLines.collect([]byte("7 2.5\n8\r\n\n9 1e3\n10"))
	if err != nil || n != 4 {
		t.Fatalf("decoded %d records (err %v), want 4", n, err)
	}
	sameItems(t, got, stream.WSlice{{Key: 7, Weight: 2.5}, {Key: 8, Weight: 1}, {Key: 9, Weight: 1000}, {Key: 10, Weight: 1}})

	for _, bad := range []string{"5 0\n", "5 -1\n", "5 nan\n", "5 +Inf\n", "5 heavy\n"} {
		if _, _, err := weightedLines.collect([]byte(bad)); !errors.Is(err, stream.ErrBadWeight) {
			t.Fatalf("line %q error = %v, want bad weight", bad, err)
		}
	}
	testRejects(t, weightedLines, []byte("0 2\n"), "1-based universe", 0)
}

// testAllocFree pins the steady-state guarantee: after the pools warm
// up, decoding a request body allocates nothing — scratch buffers and
// chunks are recycled, not remade, per request.
func testAllocFree(t *testing.T, name string, body []byte, decode func(io.Reader) (int, error)) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the strict bound")
	}
	rd := bytes.NewReader(body)
	run := func() {
		rd.Reset(body)
		if _, err := decode(rd); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools outside the measured runs
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("%s allocates %v objects per request in steady state, want 0", name, allocs)
	}
}

func (f format) testAllocFree(t *testing.T) {
	testAllocFree(t, f.name, f.encode(seq(2*f.perChunk+100)), f.drain)
}

func TestDecodeBinaryStreamAllocFree(t *testing.T)         { plainRecords.testAllocFree(t) }
func TestDecodeWeightedBinaryStreamAllocFree(t *testing.T) { weightedRecords.testAllocFree(t) }

func TestDecodeTextStreamAllocFree(t *testing.T) {
	t.Run(plainLines.name, plainLines.testAllocFree)
	t.Run(weightedLines.name, weightedLines.testAllocFree)
}

// TestDecodeBinaryStreamOwnedAllocFree extends the guarantee across the
// ownership hand-off, the way handleIngest drives it: decode, feed each
// chunk into a running stream under the runner's lock, apply, release
// back to the decode pool — no closure of that path may escape.
func TestDecodeBinaryStreamOwnedAllocFree(t *testing.T) {
	run, err := buildRunner(StreamConfig{Stat: "fk", Exact: true, P: 1, Presampled: true, Shards: 2}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer run.close()
	testAllocFree(t, "decodeRecords+FeedOwned", plainRecords.encode(seq(2*plainRecords.perChunk+100)), func(body io.Reader) (int, error) {
		n, err := decodeRecords(body, plainWire, func(c []stream.Item, release func()) {
			run.feed(nil, release, func(pl *pipe) { pl.FeedOwned(c, release) })
		})
		run.feed(nil, nil, (*pipe).Sync)
		return n, err
	})
}

// TestIngestRejectsDeclaredOversizeAtomically pins the up-front length
// gate: a request whose Content-Length exceeds the ingest limit must be
// refused with 413 before ANY item reaches the estimators — the
// streaming decode path must not ingest a doomed request's prefix.
func TestIngestRejectsDeclaredOversizeAtomically(t *testing.T) {
	a := NewAgent(AgentConfig{ID: "oversize-test"})
	defer a.Close()
	if err := a.CreateStream("s", StreamConfig{Stat: "fk", Exact: true, P: 1, Seed: 1, Presampled: true, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()
	// Declare an over-limit length; send only a small (valid) prefix so
	// a buggy streaming path would have something to ingest.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/streams/s/ingest",
		bytes.NewReader(binBody(stream.Slice{1, 2, 3})))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.ContentLength = maxIngestBytes + 1
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversize ingest returned %s, want 413", resp.Status)
		}
	}
	// Whether or not the client transport surfaced the early close as an
	// error, nothing may have been ingested.
	st, ok := a.lookup("s")
	if !ok {
		t.Fatal("stream vanished")
	}
	if fed, _ := st.run.counts(); fed != 0 {
		t.Fatalf("oversize request ingested %d items, want 0", fed)
	}
}

func TestParseIngestType(t *testing.T) {
	cases := []struct {
		ct      string
		format  ingestFormat
		wantErr bool
	}{
		{"", formatText, false},
		{ContentTypeText, formatText, false},
		{"text/plain; charset=utf-8", formatText, false},
		{ContentTypeBinary, formatBinary, false},
		{ContentTypeTextWeighted, formatTextWeighted, false},
		{ContentTypeTextWeighted + "; charset=utf-8", formatTextWeighted, false},
		{ContentTypeBinaryWeighted, formatBinaryWeighted, false},
		{"application/json", formatText, true},
	}
	for _, c := range cases {
		format, err := parseIngestType(c.ct)
		if (err != nil) != c.wantErr || format != c.format {
			t.Fatalf("parseIngestType(%q) = (%v, %v), want (%v, err=%v)", c.ct, format, err, c.format, c.wantErr)
		}
	}
}

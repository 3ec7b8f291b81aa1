package sketch

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"slices"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// varintEdges are the values on either side of every byte-length boundary
// of a uvarint, plus the extremes.
func varintEdges() []uint64 {
	edges := []uint64{0, 1, math.MaxUint64, 1 << 63}
	for shift := 7; shift < 64; shift += 7 {
		edges = append(edges, 1<<shift-1, 1<<shift)
	}
	return edges
}

func TestVarintRoundTrip(t *testing.T) {
	w := &wire.Writer{}
	for _, v := range varintEdges() {
		w.Uvarint(v)
		w.Varint(int64(v))
		w.Varint(-int64(v))
	}
	// The byte form is standard LEB128 / zigzag, not a private dialect.
	var std []byte
	for _, v := range varintEdges() {
		std = binary.AppendUvarint(std, v)
		std = binary.AppendVarint(std, int64(v))
		std = binary.AppendVarint(std, -int64(v))
	}
	if !bytes.Equal(w.Bytes(), std) {
		t.Fatal("Writer varints differ from encoding/binary's")
	}
	// Signed values are only ever read back as the cells of a table
	// (TestCellsRoundTrip); here the zigzag mapping is undone by hand.
	r := wire.NewReader(w.Bytes())
	unzigzag := func(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
	for _, v := range varintEdges() {
		if got := r.Uvarint(); got != v {
			t.Fatalf("Uvarint: got %d, want %d", got, v)
		}
		if got := unzigzag(r.Uvarint()); got != int64(v) {
			t.Fatalf("Varint: got %d, want %d", got, int64(v))
		}
		if got := unzigzag(r.Uvarint()); got != -int64(v) {
			t.Fatalf("Varint: got %d, want %d", got, -int64(v))
		}
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestUvarintRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":                    {},
		"cut after a continuation": {0x80},
		"cut mid-value":            {0xff, 0xff, 0xff},
		"11 bytes":                 append(slices.Repeat([]byte{0x80}, 10), 0x01),
		"tenth byte above 1":       append(slices.Repeat([]byte{0xff}, 9), 0x02),
		"over-long zero":           {0x80, 0x00},
		"over-long 1":              {0x81, 0x00},
		"over-long 2^14":           {0x80, 0x80, 0x81, 0x00},
	}
	for name, data := range cases {
		r := wire.NewReader(data)
		if v := r.Uvarint(); r.Err() == nil || v != 0 {
			t.Errorf("%s: read %d, err %v", name, v, r.Err())
		}
		// The failure sticks: later reads return zero without moving on.
		if v := r.Uvarint(); v != 0 || r.Err() == nil {
			t.Errorf("%s: a read after the failure returned %d", name, v)
		}
	}
}

// runOf writes entries as a sorted run, bypassing Put so a test can place
// any delta and any count on the wire.
func runOf(entries ...[2]uint64) []byte {
	w := &wire.Writer{}
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		w.Uvarint(e[0])
		w.Uvarint(e[1])
	}
	return w.Bytes()
}

func TestRunRejects(t *testing.T) {
	const max = math.MaxUint64
	cases := []struct {
		name     string
		data     []byte
		maxCount uint64
	}{
		{"delta 0", runOf([2]uint64{5, 1}, [2]uint64{0, 1}), max},
		{"first key may be 0 but the second may not repeat it", runOf([2]uint64{0, 1}, [2]uint64{0, 1}), max},
		{"keys summing past 2^64", runOf([2]uint64{5, 1}, [2]uint64{max, 1}), max},
		{"keys summing to exactly 2^64", runOf([2]uint64{5, 1}, [2]uint64{max - 4, 1}), max},
		{"count 0", runOf([2]uint64{5, 0}), max},
		{"count above the bound", runOf([2]uint64{5, 8}), 7},
		{"counts summing past 2^64", runOf([2]uint64{5, 1 << 63}, [2]uint64{1, 1 << 63}), max},
		{"fewer entries than claimed", runOf([2]uint64{5, 1}, [2]uint64{1, 1})[:6], max},
		{"more entries claimed than bytes could hold", binary.LittleEndian.AppendUint32(nil, 1<<28), max},
	}
	for _, tc := range cases {
		r := wire.NewReader(tc.data)
		run := r.Run(wire.MaxWireElems, wire.RunEntryBytes, tc.maxCount)
		for run.Next() {
		}
		if r.Err() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The widest legal run: first key 0, last key 2^64-1, counts filling
	// 64 bits exactly.
	r := wire.NewReader(runOf([2]uint64{0, 1 << 63}, [2]uint64{max, 1<<63 - 1}))
	run := r.Run(wire.MaxWireElems, wire.RunEntryBytes, max)
	for run.Next() {
	}
	if err := r.Done(); err != nil || run.Item != max || run.Sum != max {
		t.Fatalf("widest run: item %d sum %d err %v", run.Item, run.Sum, err)
	}
}

// sortedKeys returns the keys of an item-keyed map in increasing order.
func sortedKeys[V any](m map[stream.Item]V) []stream.Item {
	return slices.Sorted(maps.Keys(m))
}

// writeFreq writes an item → count map as a sorted item run.
func writeFreq(w *wire.Writer, f map[stream.Item]uint64) {
	run := w.Run(len(f))
	for _, it := range sortedKeys(f) {
		run.Put(it, f[it])
	}
}

// readFreq reads a map written by writeFreq back, with the sum of its
// counts.
func readFreq(r *wire.Reader) (map[stream.Item]uint64, uint64) {
	run := r.Run(wire.MaxWireElems, wire.RunEntryBytes, math.MaxUint64)
	f := make(map[stream.Item]uint64, run.N)
	for run.Next() {
		f[run.Item] = run.Count
	}
	return f, run.Sum
}

// ipv4Keys returns n distinct IPv4-like keys: addresses clustered in a
// few /16s, the benchmark's key shape.
func ipv4Keys(n int, seed uint64) []stream.Item {
	r := rng.New(seed)
	seen := map[stream.Item]bool{}
	for len(seen) < n {
		seen[stream.Item(10<<24|r.Uint64n(8)<<16|r.Uint64n(1<<16))] = true
	}
	return sortedKeys(seen)
}

// seqItems returns the keys 1..n.
func seqItems(n int) []stream.Item {
	keys := make([]stream.Item, n)
	for i := range keys {
		keys[i] = stream.Item(i + 1)
	}
	return keys
}

// randomKeys returns n distinct uniformly random 64-bit keys.
func randomKeys(n int, seed uint64) []stream.Item {
	r := rng.New(seed)
	seen := map[stream.Item]bool{}
	for len(seen) < n {
		seen[stream.Item(r.Uint64())] = true
	}
	return sortedKeys(seen)
}

// TestFreqRoundTripAndSizeBudget pins what a sorted run costs: at most 4
// bytes an entry on IPv4-like keys and 10 on uniformly random 64-bit keys
// (v2 spent 16 on both), with counts that are mostly 1 and occasionally
// enormous.
func TestFreqRoundTripAndSizeBudget(t *testing.T) {
	cases := []struct {
		name     string
		keys     []stream.Item
		perEntry float64
	}{
		{"empty", nil, 0},
		{"23 small keys", seqItems(23), 2},
		{"10000 IPv4-like keys", ipv4Keys(10000, 2), 4},
		{"10000 random 64-bit keys", randomKeys(10000, 3), 10},
		{"keys 0 and 2^64-1", []stream.Item{0, math.MaxUint64}, 16},
	}
	for _, tc := range cases {
		r := rng.New(9)
		f := map[stream.Item]uint64{}
		var sum uint64
		for i, it := range tc.keys {
			f[it] = 1 + r.Uint64n(3)
			if i%1000 == 999 {
				f[it] = 1 << 50 // 8 bytes once in a thousand entries
			}
			sum += f[it]
		}
		w := &wire.Writer{}
		writeFreq(w, f)
		if got := float64(len(w.Bytes())-4) / float64(max(len(f), 1)); got > tc.perEntry {
			t.Errorf("%s: %.2f bytes an entry, budget %.0f", tc.name, got, tc.perEntry)
		}
		rd := wire.NewReader(w.Bytes())
		back, gotSum := readFreq(rd)
		if err := rd.Done(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if gotSum != sum || len(back) != len(f) {
			t.Fatalf("%s: %d entries summing to %d, want %d and %d", tc.name, len(back), gotSum, len(f), sum)
		}
		for it, c := range f {
			if back[it] != c {
				t.Fatalf("%s: item %d came back as %d, want %d", tc.name, it, back[it], c)
			}
		}
	}
}

func TestCellsRoundTrip(t *testing.T) {
	signed := []int64{0, 0, 0, 1, -1, 0, 63, -64, 64, 0, 0, math.MaxInt64, math.MinInt64, 0}
	w := &wire.Writer{}
	w.SignedCells(signed)
	r := wire.NewReader(w.Bytes())
	back := r.SignedCells(len(signed))
	if err := r.Done(); err != nil || !slices.Equal(back, signed) {
		t.Fatalf("signed cells: %v, err %v", back, err)
	}
	unsigned := []uint64{7, 0, 0, 0, 0, 127, 128, 0, math.MaxUint64}
	w = &wire.Writer{}
	w.Cells(unsigned)
	r = wire.NewReader(w.Bytes())
	ub := r.Cells(len(unsigned))
	if err := r.Done(); err != nil || !slices.Equal(ub, unsigned) {
		t.Fatalf("unsigned cells: %v, err %v", ub, err)
	}
	// A table may be nothing at all.
	r = wire.NewReader(nil)
	if err := r.Done(); err != nil || len(r.Cells(0)) != 0 {
		t.Fatalf("empty table: %v", err)
	}
}

func TestCellsReject(t *testing.T) {
	cases := map[string][]byte{
		"zero run one past the end":   {0x00, 0x04},
		"zero run far past the end":   append([]byte{0x00}, binary.AppendUvarint(nil, math.MaxUint64)...),
		"zero run past the remainder": {0x05, 0x05, 0x00, 0x02},
		"fewer cells than the table":  {0x05, 0x05},
		"cut inside the run length":   {0x00},
		"cut inside a cell":           {0x05, 0x85},
	}
	for name, data := range cases {
		r := wire.NewReader(data)
		if r.Cells(4); r.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A large table the input cannot fill is refused before it is
	// allocated.
	if n := testing.AllocsPerRun(10, func() { wire.NewReader([]byte{0x05}).Cells(1 << 28) }); n > 2 {
		t.Errorf("an unfillable 2^28-cell table cost %v allocations", n)
	}
	// More cells than the table holds are trailing bytes, not a panic.
	r := wire.NewReader([]byte{1, 2, 3, 4, 5})
	r.Cells(4)
	if r.Done() == nil {
		t.Error("a fifth cell of a four-cell table went unnoticed")
	}
}

// TestEmptyTableCostsBytesNotCells pins the zero-run escape: the table
// section of a pristine CountMin or CountSketch is at most 16 bytes
// whatever its geometry, so the pristine replica and the idle generations
// of a windowed table sketch cost next to nothing on the wire.
func TestEmptyTableCostsBytesNotCells(t *testing.T) {
	for _, geom := range [][2]int{{1, 1}, {8, 2}, {4096, 5}, {1 << 18, 5}, {1 << 20, 16}} {
		width, depth := geom[0], geom[1]
		cm, err := NewCountMin(width, depth, rng.New(1)).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if table := len(cm) - (2 + 4 + 4 + 8 + depth*20); table > 16 {
			t.Errorf("CountMin %dx%d: empty table section is %d bytes", width, depth, table)
		}
		cs, err := NewCountSketch(width, depth, rng.New(1)).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if table := len(cs) - (2 + 4 + 4 + 8 + depth*(20+36)); table > 16 {
			t.Errorf("CountSketch %dx%d: empty table section is %d bytes", width, depth, table)
		}
		if _, err := wire.Decode(cs, DecodeCountSketch); err != nil {
			t.Errorf("CountSketch %dx%d: %v", width, depth, err)
		}
	}
}

// encoderFunc is an encoder written in place.
type encoderFunc func(w *wire.Writer)

func (f encoderFunc) Encode(w *wire.Writer) { f(w) }

func TestNestWritesInPlace(t *testing.T) {
	ss := NewSpaceSaving(4)
	for i := 0; i < 20; i++ {
		ss.Observe(stream.Item(i % 6))
	}
	child, err := ss.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	w := &wire.Writer{}
	w.Raw([]byte("prefix"))
	w.Nest(ss)
	w.U8(0x7e)
	want := &wire.Writer{}
	want.Raw([]byte("prefix"))
	want.Nested(child)
	want.U8(0x7e)
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Fatalf("Nest wrote % x, want % x", w.Bytes(), want.Bytes())
	}
}

// TestSizingPassBoundsThePayload pins what lets Marshal allocate once: a
// sizing pass counts every field at the length the writing pass gives it,
// except the keys of a run it is not handed in the written order, which
// it counts at no less than the delta the writing pass writes — so the
// count is exact for a payload without such runs and never short of one
// with them (the level-set estimator's repetitions are such runs).
func TestSizingPassBoundsThePayload(t *testing.T) {
	r := rng.New(3)
	cm, cs, kmv := NewCountMin(64, 3, r), NewCountSketch(64, 3, r), NewKMV(16, r)
	ss, topk := NewSpaceSaving(8), NewTopK(8)
	var arrived []stream.Item
	for i := 0; i < 500; i++ {
		it := stream.Item(1<<40 + uint64(i%37)*uint64(i%11+1))
		cm.Observe(it)
		cs.Observe(it)
		kmv.Observe(it)
		ss.Observe(it)
		topk.Update(it, float64(i))
		if !slices.Contains(arrived, it) {
			arrived = append(arrived, it)
		}
	}
	// unordered hands the sizing pass a run's keys in arrival order and
	// the writing pass sorted ones, as the level-set estimator does.
	unordered := encoderFunc(func(w *wire.Writer) {
		keys := slices.Clone(arrived)
		if !w.Sizing() {
			slices.Sort(keys)
		}
		run := w.Run(len(keys))
		for _, it := range keys {
			run.Put(it, 1)
		}
	})
	for _, tc := range []struct {
		e     wire.Encoder
		exact bool
	}{{cm, true}, {cs, true}, {kmv, true}, {ss, true}, {topk, true}, {unordered, false}} {
		// What the sizing pass counted is the capacity of the buffer the
		// writing pass starts on.
		var sized int
		payload, err := wire.Marshal(encoderFunc(func(w *wire.Writer) {
			if !w.Sizing() {
				sized = cap(w.Bytes())
			}
			tc.e.Encode(w)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if sized < len(payload) || (tc.exact && sized != len(payload)) || cap(payload) != sized {
			t.Errorf("%T: sized at %d bytes, wrote %d into a buffer of %d", tc.e, sized, len(payload), cap(payload))
		}
	}
}

// TestNestBoundsTheChild pins the reading half of in-place nesting: the
// child's decode function reads from the parent's Reader, cannot read past
// its own length although the parent's bytes go on, fails the payload when
// it leaves bytes unread, and draws on the parent's decode budget.
func TestNestBoundsTheChild(t *testing.T) {
	w := &wire.Writer{}
	w.Nested([]byte{1, 2, 3})
	w.U8(0x7e)
	raw := func(n int) func(*wire.Reader) ([]byte, error) {
		return func(r *wire.Reader) ([]byte, error) { return r.Raw(n), r.Err() }
	}
	for n, ok := range map[int]bool{2: false, 3: true, 4: false} {
		r := wire.NewReader(w.Bytes())
		child, err := wire.Nest(r, raw(n))
		if (err == nil) != ok || (r.Err() == nil) != ok {
			t.Fatalf("child reading %d of its 3 bytes: err %v, reader %v", n, err, r.Err())
		}
		if ok && (!bytes.Equal(child, []byte{1, 2, 3}) || r.U8() != 0x7e || r.Done() != nil) {
			t.Fatalf("after the child the parent read on wrongly (%v)", r.Done())
		}
	}

	// Two all-zero tables of 0.6 of the budget each, one nested.
	const budget = 1 << 16
	defer SetMaxDecodedBytes(budget)()
	cells := budget * 6 / 10 / 8
	table := func(r *wire.Reader) ([]uint64, error) { return r.Cells(cells), r.Err() }
	w = &wire.Writer{}
	w.Cells(make([]uint64, cells))
	w.Nest(encoderFunc(func(w *wire.Writer) { w.Cells(make([]uint64, cells)) }))
	r := wire.NewReader(w.Bytes())
	if _, err := table(r); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Nest(r, table); err == nil {
		t.Fatal("a nested table had a decode budget of its own")
	}
}

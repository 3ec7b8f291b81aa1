package sketch

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"substream/internal/wire"
)

// This file forges hostile v3 payloads out of valid ones. It knows the
// byte layout of every registry kind and of every component they nest
// independently of the encoders — a second, hand-written statement of the
// format that has to move with it — and uses it to find the places the v3
// failure modes live: a varint field, an element count, the entries of a
// sorted run, a counter table. It finds them in every payload, top-level
// or nested, so a component is forged where it rides: inside its parent.
// HostileRows then rewrites exactly that place and repairs the length
// prefix of every payload nested around it, so a forged payload is
// refused by the check under test and not by an outer length that no
// longer adds up. The names are exported to the package's external tests
// (the registry-wide table and FuzzEstimatorDecode); the per-kind fuzz
// targets in this package seed from the same rows.

// WireSite is one place in a payload together with the offsets of the
// uint32 length prefixes of the nested payloads around it, outermost
// first.
type WireSite struct {
	// Tag is the tag of the payload, top-level or nested, that holds the
	// site.
	Tag  byte
	Off  int
	Lens []int
	// End is where the payload that holds the site ends.
	End int
	// Max is, for a run's count, the largest value its decoder admits
	// (0: unbounded); for a table, its cell count.
	Max uint64
	// Dims is, for a table, where the width and depth of its sketch sit.
	Dims int
}

// siteWalker walks one payload by the layout rules and records, for each
// tag it meets, the first site of each sort in a payload of that tag.
type siteWalker struct {
	data []byte
	r    *wire.Reader
	lens []int
	end  int
	tag  byte // of the payload being walked
	// tags are the tags of the payload and of every payload nested in it,
	// each once, in wire order. sites holds, per tag, the first site of
	// each name in a payload of that tag: "version" (its version byte),
	// "count" (a uint32 element count), "varint" (a uvarint field), "run
	// delta" (the key delta of a run's second entry), "run count" (the
	// count of its first entry), "dims" (the width and depth of a counter
	// table), "table" (where its cells start), and a level set's "budget"
	// and "heavy" (the length prefix of its nested SpaceSaving).
	tags  []byte
	sites map[byte]map[string]WireSite
	// tables are the table sites of the whole payload, in wire order.
	tables []WireSite
}

// off is the walker's position in the payload.
func (w *siteWalker) off() int { return len(w.data) - w.r.Remaining() }

func (w *siteWalker) mark(name string, max uint64) {
	if _, seen := w.sites[w.tag][name]; !seen && w.r.Err() == nil {
		w.sites[w.tag][name] = WireSite{Tag: w.tag, Off: w.off(), Lens: slices.Clone(w.lens), End: w.end, Max: max}
	}
}

func (w *siteWalker) skip(n int) { w.r.Raw(min(n, w.r.Remaining())) }

// nested walks a child payload behind its length prefix and leaves the
// reader at the child's end, however much of it the walk consumed.
func (w *siteWalker) nested() {
	w.lens = append(w.lens, w.off())
	outerEnd := w.end
	n := int(w.r.U32())
	w.end = w.off() + n
	if w.r.Err() == nil && w.end <= outerEnd {
		w.payload()
		w.skip(w.end - w.off())
	}
	w.lens, w.end = w.lens[:len(w.lens)-1], outerEnd
}

// run walks a sorted item run whose entries each carry extra fixed bytes;
// maxCount is the decoder's bound on one count (0: unbounded).
func (w *siteWalker) run(extra int, maxCount uint64) {
	w.mark("count", 0)
	n := int(w.r.U32())
	for i := 0; i < n && w.r.Err() == nil; i++ {
		// Only a run of two or more entries has sites: a lone entry has
		// no delta to break, and no second count for its own to overflow
		// a sum with.
		if n >= 2 && i == 0 {
			w.mark("varint", 0)
		} else if i == 1 {
			w.mark("run delta", 0)
		}
		w.r.Uvarint()
		if n >= 2 && i == 0 {
			w.mark("run count", maxCount)
		}
		w.r.Uvarint()
		w.skip(extra)
	}
}

// payload walks one (tag, version)-prefixed payload.
func (w *siteWalker) payload() {
	r := w.r
	version := w.off() + 1
	tag := r.U8()
	r.U8()
	if r.Err() != nil {
		return
	}
	outer := w.tag
	defer func() { w.tag = outer }()
	w.tag = tag
	if w.sites[tag] == nil {
		w.tags = append(w.tags, tag)
		w.sites[tag] = map[string]WireSite{"version": {Tag: tag, Off: version, Lens: slices.Clone(w.lens), End: w.end}}
	}
	switch tag {
	case TagCountMin, TagCountSketch:
		w.mark("dims", 0)
		dims := w.off()
		width, depth := int(r.U32()), int(r.U32())
		r.U64()
		w.skip(depth * 20) // Hash2 rows
		if tag == TagCountSketch {
			w.skip(depth * 36) // Hash4 signs
		}
		w.mark("table", uint64(width*depth))
		if r.Err() == nil {
			w.tables = append(w.tables, WireSite{Tag: tag, Off: w.off(), Lens: slices.Clone(w.lens), End: w.end, Max: uint64(width * depth), Dims: dims})
		}
	case TagKMV:
		r.U32()
		r.Hash2()
		w.mark("count", 0)
	case TagSpaceSaving:
		r.U32()
		r.U64()
		w.mark("count", 0)
		if r.U32() > 0 {
			r.U64()
			w.mark("varint", 0)
		}
	case TagTopK:
		r.U32()
		w.mark("count", 0)
	case 0x10: // levelset.ExactCounter
		w.run(0, r.U64())
	case 0x11: // levelset.Estimator
		w.skip(8 + 8)
		w.mark("budget", 0)
		r.U32()
		w.mark("heavy", 0)
		w.nested()
		for reps := int(r.U32()); reps > 0 && r.Err() == nil; reps-- {
			r.Hash2()
			r.U32()
			w.run(1, 0)
		}
	case 0x20: // core.FkEstimator
		w.skip(4 + 8 + 8)
		w.mark("count", 0)
		w.skip(8 * int(r.U32()))
		w.nested()
	case 0x21: // core.F0Estimator
		r.F64()
		w.nested()
	case 0x22: // core.EntropyEstimator
		r.F64()
		w.run(0, r.U64())
	case 0x23, 0x24: // core.F1HeavyHitters, core.F2HeavyHitters
		w.skip(8 + 8 + 8 + 8)
		if tag == 0x23 {
			r.U8()
		}
		w.nested()
		w.nested()
	case 0x25: // core.Monitor
		w.skip(8 + 8)
		for parts := bits.OnesCount8(r.U8()); parts > 0 && r.Err() == nil; parts-- {
			w.nested()
		}
	case 0x26: // core.GEEF0Estimator
		r.F64()
		w.run(0, 0)
	case 0x30: // window.Estimator
		r.I64()
		gens := int(r.U32())
		r.U64()
		for replicas := gens + 2; replicas > 0 && r.Err() == nil; replicas-- {
			w.nested()
		}
	case 0x40: // quantile.Estimator
		w.mark("count", 0)
		w.skip(16 * int(r.U32()))
		r.U64()
		if r.U32() > 0 {
			r.F64()
			w.mark("varint", 0)
		}
	case 0x50: // sample.VarOpt
		w.skip(4 + 8 + 8 + 8 + 4*8)
		w.mark("count", 0)
	}
}

// PayloadTags returns the tag of a valid payload and of every payload
// nested in it, however deep, each once, in wire order.
func PayloadTags(payload []byte) []byte { return walk(payload).tags }

// TableTags returns the tags of the payloads in a valid payload, top-level
// or nested, whose own layout holds a counter table.
func TableTags(payload []byte) []byte {
	var tags []byte
	for _, table := range walk(payload).tables {
		if !slices.Contains(tags, table.Tag) {
			tags = append(tags, table.Tag)
		}
	}
	return tags
}

func walk(payload []byte) *siteWalker {
	w := &siteWalker{data: payload, r: wire.NewReader(payload), end: len(payload), sites: map[byte]map[string]WireSite{}}
	w.payload()
	return w
}

// TableBytes returns what the counter tables of a valid payload, however
// nested, decode to together: 8 bytes a cell.
func TableBytes(payload []byte) int {
	total := 0
	for _, table := range walk(payload).tables {
		total += 8 * int(table.Max)
	}
	return total
}

// ZeroTables returns a valid payload with every counter table in it
// rewritten as an all-zero table that decodes to about size bytes: a few
// wire bytes each, whatever the size.
func ZeroTables(payload []byte, size int) []byte {
	tables := walk(payload).tables
	// Last table first: a rewrite moves only what lies behind it.
	for _, s := range slices.Backward(tables) {
		depth := int(binary.LittleEndian.Uint32(payload[s.Dims+4:]))
		width := size / 8 / depth
		payload = s.rewrite(payload, s.End-s.Off, append([]byte{0}, binary.AppendUvarint(nil, uint64(width*depth-1))...), false)
		binary.LittleEndian.PutUint32(payload[s.Dims:], uint32(width))
	}
	return payload
}

// rewrite replaces old bytes at the site with repl and, when cut, drops
// everything after them; either way the enclosing lengths are repaired.
func (s WireSite) rewrite(payload []byte, old int, repl []byte, cut bool) []byte {
	out := append(append([]byte(nil), payload[:s.Off]...), repl...)
	if !cut {
		out = append(out, payload[s.Off+old:]...)
	}
	for _, at := range s.Lens {
		n := binary.LittleEndian.Uint32(payload[at:]) + uint32(len(out)) - uint32(len(payload))
		binary.LittleEndian.PutUint32(out[at:], n)
	}
	return out
}

// SetMaxDecodedBytes lowers the decode budget for one test and returns the
// function that restores it.
func SetMaxDecodedBytes(n int) (restore func()) {
	old := wire.MaxDecodedBytes
	wire.MaxDecodedBytes = n
	return func() { wire.MaxDecodedBytes = old }
}

// HostileRow is one forged payload and the v3 failure mode it carries in
// the payload of tag Tag: the top-level one, or a child nested in it.
type HostileRow struct {
	Tag     byte
	Name    string
	Payload []byte
}

// HostileRows forges every hostile payload the sites of a valid payload
// allow, in the payload itself and in every payload nested in it. Every
// row must fail to decode, but for the "identity" ones, which must still
// decode: a field rewritten with its own bytes shows the layout walk and
// the length repair are right, and a table zeroed at its own width shows
// that what refuses the same table at 2^24 columns is its size.
func HostileRows(payload []byte) []HostileRow {
	w := walk(payload)
	var rows []HostileRow
	for _, tag := range w.tags {
		rows = append(rows, hostileRows(payload, tag, w.sites[tag])...)
	}
	return rows
}

// hostileRows forges the rows of the sites of one payload of tag tag,
// top-level or nested, in a valid payload.
func hostileRows(payload []byte, tag byte, sites map[string]WireSite) []HostileRow {
	var rows []HostileRow
	add := func(name string, p []byte) { rows = append(rows, HostileRow{tag, name, p}) }
	uvarint := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	lenAt := func(s WireSite) int {
		_, n := binary.Uvarint(payload[s.Off:])
		return n
	}

	add("wire format v2 version byte", sites["version"].rewrite(payload, 1, []byte{2}, false))
	if s, ok := sites["varint"]; ok {
		n := lenAt(s)
		add("identity", s.rewrite(payload, n, payload[s.Off:s.Off+n], false))
		add("truncated mid-varint", s.rewrite(payload, n, []byte{0x80}, true))
		add("11-byte varint", s.rewrite(payload, n, append(slices.Repeat([]byte{0x80}, 10), 0x01), false))
		add("varint overflowing 64 bits", s.rewrite(payload, n, append(slices.Repeat([]byte{0xff}, 9), 0x02), false))
		overlong := append([]byte(nil), payload[s.Off:s.Off+n]...)
		overlong[n-1] |= 0x80
		add("over-long varint", s.rewrite(payload, n, append(overlong, 0x00), false))
	}
	if s, ok := sites["run delta"]; ok {
		add("run delta 0", s.rewrite(payload, lenAt(s), uvarint(0), false))
		add("run keys summing past 2^64", s.rewrite(payload, lenAt(s), uvarint(math.MaxUint64), false))
	}
	if s, ok := sites["run count"]; ok {
		add("run count 0", s.rewrite(payload, lenAt(s), uvarint(0), false))
		if s.Max > 0 {
			add("run count above n", s.rewrite(payload, lenAt(s), uvarint(s.Max+1), false))
		} else {
			add("run counts summing past 2^64", s.rewrite(payload, lenAt(s), uvarint(math.MaxUint64), false))
		}
	}
	if s, ok := sites["table"]; ok {
		// zeroed is the payload with its table rewritten as one zero run.
		zeroed := func(cells uint64) []byte {
			return s.rewrite(payload, s.End-s.Off, append([]byte{0}, uvarint(cells-1)...), false)
		}
		add("identity: table zeroed", zeroed(s.Max))
		add("zero run past the table end", zeroed(s.Max+1))
		// Widened tables: the dimensions sit where the payload that ends
		// at s.End keeps them, behind its tag and version.
		dims, depth := sites["dims"].Off, uint64(binary.LittleEndian.Uint32(payload[sites["dims"].Off+4:]))
		// 2^22 columns fit the decode budget, but not the cells of the
		// narrow table they sit over.
		wide := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint32(wide[dims:], 1<<22)
		add("table of 2^22 columns over a short body", wide)
		// 2^24 columns, as wide as a table may claim to be, of nothing but
		// zeros: a well-formed table of a few bytes that the budget alone
		// keeps from being allocated.
		empty := zeroed(maxDim * depth)
		binary.LittleEndian.PutUint32(empty[dims:], maxDim)
		add("all-zero table of 2^24 columns", empty)
	}
	if budget, ok := sites["budget"]; ok {
		// A level set's budget lowered to 1 over its heavy summary emptied
		// to k = 1 (n kept): each part agrees with the other, and every
		// repetition of two or more items holds more than its budget at a
		// threshold below the top level — a state no update or merge
		// leaves.
		h := sites["heavy"]
		start := h.Off + 4 + 2 // behind the heavy's length, tag and version
		end := h.Off + 4 + int(binary.LittleEndian.Uint32(payload[h.Off:]))
		heavy := WireSite{Tag: h.Tag, Off: start, Lens: append(slices.Clone(h.Lens), h.Off)}
		empty := binary.LittleEndian.AppendUint32(nil, 1)
		empty = append(empty, payload[start+4:start+12]...)
		empty = binary.LittleEndian.AppendUint32(empty, 0)
		forged := heavy.rewrite(payload, end-start, empty, false)
		binary.LittleEndian.PutUint32(forged[budget.Off:], 1)
		add("repetition over its budget", forged)
	}
	if s, ok := sites["count"]; ok {
		// 2^28 elements claimed by a body that ends within 64 bytes.
		huge := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint32(huge[s.Off:], 1<<28)
		keep := min(len(huge)-s.Off, 64)
		add("u32 count of 2^28 over a 64-byte body", s.rewrite(huge, keep, huge[s.Off:s.Off+keep], true))
	}
	return rows
}

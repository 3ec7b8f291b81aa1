package sketch_test

import (
	"runtime"
	"strings"
	"testing"

	"substream/internal/estimator"
	"substream/internal/sketch"
)

// hostileShapes names, per wire tag, the hostile rows that kind's own
// layout must give rise to (composites add whatever their children carry).
// A kind missing from it fails TestHostilePayloads, so a new kind cannot
// join the registry without saying which v3 shapes its payload holds.
var hostileShapes = map[byte][]string{
	0x01: {"zero run past the table end", "table of 2^22 columns over a short body", "all-zero table of 2^24 columns"},
	0x02: {"zero run past the table end", "table of 2^22 columns over a short body", "all-zero table of 2^24 columns"},
	0x03: {"u32 count of 2^28 over a 64-byte body"},
	0x04: {},
	0x05: {"u32 count of 2^28 over a 64-byte body", "11-byte varint"},
	0x06: {"run delta 0", "run count above n"},
	0x07: {"u32 count of 2^28 over a 64-byte body"},
	0x10: {"run delta 0", "run count above n"},
	0x11: {"run delta 0", "run counts summing past 2^64", "11-byte varint"},
	0x12: {"zero run past the table end", "all-zero table of 2^24 columns", "u32 count of 2^28 over a 64-byte body"},
	0x20: {"run delta 0", "11-byte varint"},
	0x21: {"u32 count of 2^28 over a 64-byte body"},
	0x22: {"run delta 0", "run count above n"},
	0x23: {"zero run past the table end", "all-zero table of 2^24 columns"},
	0x24: {"zero run past the table end", "all-zero table of 2^24 columns"},
	0x25: {"run delta 0", "zero run past the table end", "all-zero table of 2^24 columns", "11-byte varint"},
	0x26: {"run delta 0", "run counts summing past 2^64"},
	0x30: {"zero run past the table end", "all-zero table of 2^24 columns"},
	0x40: {"u32 count of 2^28 over a 64-byte body", "over-long varint"},
	0x50: {"u32 count of 2^28 over a 64-byte body"},
}

// allocatedBy returns the bytes f allocated (tests in this package do not
// run in parallel, so nothing else allocates meanwhile).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostilePayloads is the v3 hostile-input table: for every registry
// kind, every forged payload its layout allows — a v2 version byte, a
// varint cut short, an 11-byte, an overflowing and an over-long varint, a
// run with a zero delta, with keys or counts summing past 2^64, with a
// count of 0 or above n, a zero run past the end of a table, a table of
// 2^22 columns or an element count of 2^28 over a short body, a
// well-formed all-zero table of 2^24 columns — must be refused by
// estimator.Decode without a panic and without allocating as much as
// 1 MiB on the way.
func TestHostilePayloads(t *testing.T) {
	covered := map[byte]bool{}
	for _, payload := range registryCorpus(t) {
		tag := payload[0]
		covered[tag] = true
		want, known := hostileShapes[tag]
		if !known {
			t.Errorf("tag %#x has no entry in hostileShapes", tag)
		}
		forged := map[string]bool{}
		for _, row := range sketch.HostileRows(payload) {
			forged[row.Name] = true
			var err error
			allocated := allocatedBy(func() { _, err = estimator.Decode(row.Payload) })
			if strings.HasPrefix(row.Name, "identity") {
				if err != nil {
					t.Errorf("tag %#x: %s: no longer decodes: %v", tag, row.Name, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("tag %#x: %s: decoded", tag, row.Name)
			}
			if allocated >= 1<<20 {
				t.Errorf("tag %#x: %s: refused only after allocating %d bytes", tag, row.Name, allocated)
			}
		}
		for _, name := range want {
			if !forged[name] {
				t.Errorf("tag %#x: its payload gave rise to no %q row", tag, name)
			}
		}
	}
	for _, k := range estimator.Kinds() {
		if !covered[k.Tag] {
			t.Errorf("registry kind %q (tag %#x) is not in the hostile table", k.Name, k.Tag)
		}
	}
}

// TestDecodeBudgetCoversNestedChildren pins that the number of children a
// composite reads off the wire — the generations of a ring, the levels of
// an IWEstimator — does not multiply what a payload may decode to: with
// the budget lowered to half of what the corpus's ring and IWEstimator
// decode to, every one of their tables still well within it, Decode
// refuses them, and without first decoding the children that are left.
func TestDecodeBudgetCoversNestedChildren(t *testing.T) {
	for _, payload := range registryCorpus(t) {
		if tag := payload[0]; tag != 0x12 && tag != 0x30 {
			continue
		}
		var e estimator.Estimator
		var err error
		whole := allocatedBy(func() { e, err = estimator.Decode(payload) })
		if err != nil {
			t.Fatal(err)
		}
		restore := sketch.SetMaxDecodedBytes(e.SpaceBytes() / 2)
		refused := allocatedBy(func() { _, err = estimator.Decode(payload) })
		restore()
		if err == nil || refused >= whole {
			t.Errorf("tag %#x decodes to %d bytes, allocating %d: under half that budget, err = %v after allocating %d",
				payload[0], e.SpaceBytes(), whole, err, refused)
		}
	}
}

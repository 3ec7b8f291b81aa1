package sketch_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"substream/internal/estimator"
	"substream/internal/sketch"
	"substream/internal/window"
)

// hostileShapes names, per wire tag, the hostile rows that kind's own
// layout must give rise to in at least one corpus payload: for a registry
// kind, in its top-level payloads, children included; for a component
// (0x01–0x1f), in the payload of it nested in a parent. A tag missing from
// it fails TestHostilePayloads, so a new kind cannot join the registry,
// nor a new component a parent, without saying which v3 shapes its
// payload holds.
var hostileShapes = map[byte][]string{
	0x01: {"zero run past the table end", "table of 2^22 columns over a short body", "all-zero table of 2^24 columns"},
	0x02: {"zero run past the table end", "table of 2^22 columns over a short body", "all-zero table of 2^24 columns"},
	0x03: {"u32 count of 2^28 over a 64-byte body"},
	0x05: {"u32 count of 2^28 over a 64-byte body", "11-byte varint"},
	0x07: {"u32 count of 2^28 over a 64-byte body"},
	0x10: {"run delta 0", "run count above n"},
	0x11: {"run delta 0", "run counts summing past 2^64", "11-byte varint", "repetition over its budget"},
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
// kind and every component nested in one, every forged payload its layout
// allows — a v2 version byte, a
// varint cut short, an 11-byte, an overflowing and an over-long varint, a
// run with a zero delta, with keys or counts summing past 2^64, with a
// count of 0 or above n, a zero run past the end of a table, a table of
// 2^22 columns or an element count of 2^28 over a short body, a
// well-formed all-zero table of 2^24 columns — must be refused by
// estimator.Decode without a panic and without allocating as much as
// 1 MiB on the way.
func TestHostilePayloads(t *testing.T) {
	forged := map[byte]map[string]bool{}
	refused := func(tag byte, name string, payload []byte) {
		t.Helper()
		var err error
		allocated := allocatedBy(func() { _, err = estimator.Decode(payload) })
		if strings.HasPrefix(name, "identity") {
			if err != nil {
				t.Errorf("tag %#x: %s: no longer decodes: %v", tag, name, err)
			}
			return
		}
		if err == nil {
			t.Errorf("tag %#x: %s: decoded", tag, name)
		}
		if allocated >= 1<<20 {
			t.Errorf("tag %#x: %s: refused only after allocating %d bytes", tag, name, allocated)
		}
	}
	for _, payload := range registryCorpus(t) {
		for _, tag := range sketch.PayloadTags(payload) {
			if _, known := hostileShapes[tag]; !known {
				t.Errorf("tag %#x has no entry in hostileShapes", tag)
			}
		}
		// A row counts for the payload's own tag and for the tag of the
		// nested child it was forged in.
		for _, row := range sketch.HostileRows(payload) {
			for _, tag := range []byte{payload[0], row.Tag} {
				if forged[tag] == nil {
					forged[tag] = map[string]bool{}
				}
				forged[tag][row.Name] = true
			}
			refused(row.Tag, row.Name, row.Payload)
		}
	}
	for tag, want := range hostileShapes {
		for _, name := range want {
			if forged[tag] != nil && !forged[tag][name] {
				t.Errorf("tag %#x: its payloads gave rise to no %q row", tag, name)
			}
		}
	}
	for _, k := range estimator.Kinds() {
		if forged[k.Tag] == nil {
			t.Errorf("registry kind %q (tag %#x) is not in the hostile table", k.Name, k.Tag)
		}
	}

	// The max-geometry Monitor (ROADMAP 3(a)): well-formed, a few hundred
	// bytes, its hh1 and hh2 tables 0.6 of the decode budget each. Either
	// table fits; the payload does not, and is refused before the second
	// one is allocated — alone and as the replicas of a ring. The budget
	// is lowered so that the table that is allocated stays under the
	// table's 1 MiB.
	const budget = 1 << 20
	defer sketch.SetMaxDecodedBytes(budget)()
	monitor := func() (estimator.Estimator, error) {
		return estimator.New(estimator.Spec{Stat: "all", P: 0.5, Epsilon: 0.5, Alpha: 0.3, Seed: 3})
	}
	ring, err := window.Wrap(window.Config{Window: 2, EpochLen: time.Second, Clock: window.NewManualClock(), New: monitor})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := monitor()
	if err != nil {
		t.Fatal(err)
	}
	// fits is a table size at which the payload's tables — two alone,
	// eight in the ring — still decode together.
	for _, tc := range []struct {
		e    estimator.Estimator
		fits int
	}{{alone, budget * 4 / 10}, {ring, budget / 10}} {
		payload, err := tc.e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		refused(payload[0], "identity: tables that fit the budget together", sketch.ZeroTables(payload, tc.fits))
		refused(payload[0], "hh1 and hh2 tables of 0.6 of the budget each", sketch.ZeroTables(payload, budget*6/10))
	}
}

// TestDecodeBudgetCoversNestedChildren pins that a payload has one decode
// budget whatever its nesting: neither the children a composite reads off
// the wire — the generations of a ring, the repetitions of a level set — nor
// its fixed parts multiply what it may decode to. For every corpus payload
// that holds a counter table, with the budget lowered to half of what the
// payload decodes to, Decode refuses it, and without first decoding the
// children that are left.
func TestDecodeBudgetCoversNestedChildren(t *testing.T) {
	tabled := map[byte]bool{}
	for _, payload := range registryCorpus(t) {
		if sketch.TableBytes(payload) == 0 {
			continue
		}
		tabled[payload[0]] = true
		for _, tag := range sketch.TableTags(payload) {
			tabled[tag] = true
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
	for _, tag := range []byte{0x01, 0x02, 0x23, 0x24, 0x25, 0x30} {
		if !tabled[tag] {
			t.Errorf("tag %#x: no corpus payload of it holds a counter table", tag)
		}
	}
}

// TestCorpusNestsEveryComponent pins what the batteries over
// registryCorpus reach: no component is a registry kind any more, so each
// is hostile-, truncation- and fuzz-tested only where it rides — nested in
// a parent's payload. Every component tag must therefore occur nested in
// some corpus payload, and no retired tag in any.
func TestCorpusNestsEveryComponent(t *testing.T) {
	nested := map[byte]bool{}
	for _, payload := range registryCorpus(t) {
		for _, tag := range sketch.PayloadTags(payload)[1:] {
			nested[tag] = true
		}
	}
	for _, tag := range []byte{0x01, 0x02, 0x03, 0x05, 0x07, 0x10, 0x11} {
		if !nested[tag] {
			t.Errorf("component tag %#x rides nested in no corpus payload", tag)
		}
	}
	for _, tag := range []byte{0x04, 0x06, 0x12} {
		if nested[tag] {
			t.Errorf("retired tag %#x occurs in the corpus", tag)
		}
	}
}

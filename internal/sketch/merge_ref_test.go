package sketch

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// refSpaceSavingMerge is SpaceSaving.Merge as it stood before the
// one-pass kernel (merged map, reflection sort, index-maintaining
// sift), kept verbatim as the differential reference: the kernel must
// leave byte-identical state.
func refSpaceSavingMerge(ss, other *refSpaceSaving) error {
	if ss.k != other.k {
		return fmt.Errorf("%w: SpaceSaving k %d vs %d", ErrIncompatible, ss.k, other.k)
	}
	floorOf := func(s *refSpaceSaving) uint64 {
		if len(s.h) < s.k {
			return 0 // spare capacity: untracked means never seen
		}
		return s.h[0].count
	}
	floorA, floorB := floorOf(ss), floorOf(other)
	merged := make(map[stream.Item]ssEntry, len(ss.h)+len(other.h))
	for _, e := range ss.h {
		merged[e.item] = e
	}
	for _, e := range other.h {
		if a, ok := merged[e.item]; ok {
			a.count += e.count
			a.err += e.err
			merged[e.item] = a
		} else {
			merged[e.item] = ssEntry{item: e.item, count: e.count + floorA, err: e.err + floorA}
		}
	}
	for _, e := range ss.h {
		if _, tracked := other.index[e.item]; !tracked {
			a := merged[e.item]
			a.count += floorB
			a.err += floorB
			merged[e.item] = a
		}
	}
	entries := make([]ssEntry, 0, len(merged))
	for _, e := range merged {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].count != entries[j].count {
			return entries[i].count > entries[j].count
		}
		return entries[i].item < entries[j].item
	})
	if len(entries) > ss.k {
		entries = entries[:ss.k]
	}
	ss.h = ss.h[:0]
	ss.index = make(map[stream.Item]int, ss.k)
	for _, e := range entries {
		ss.h = append(ss.h, e)
		ss.index[e.item] = len(ss.h) - 1
		ss.up(len(ss.h) - 1)
	}
	ss.n += other.n
	return nil
}

func ssOf(k int, s stream.Slice) *SpaceSaving {
	ss := NewSpaceSaving(k)
	ss.UpdateBatch(s)
	return ss
}

func ssClone(t *testing.T, ss *SpaceSaving) *SpaceSaving {
	t.Helper()
	c, err := wire.Decode(ssBytes(t, ss), DecodeSpaceSaving)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func ssBytes(t *testing.T, ss *SpaceSaving) []byte {
	t.Helper()
	b, err := ss.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ssWide decodes a full summary of k random 64-bit items with counts up
// to 2^62 — state no realistic stream reaches but the wire admits.
func ssWide(t *testing.T, k int, seed uint64) *SpaceSaving {
	t.Helper()
	r := rng.New(seed)
	w := &wire.Writer{}
	w.Header(TagSpaceSaving)
	w.U32(uint32(k))
	w.U64(1 << 63)
	w.U32(uint32(k))
	for i := 0; i < k; i++ {
		c := 2 + r.Uint64n(1<<62)
		w.U64(r.Uint64()>>1<<4 | uint64(i%16)) // distinct with overwhelming probability
		w.Uvarint(c)
		w.Uvarint(r.Uint64n(c))
	}
	ss, err := wire.Decode(w.Bytes(), DecodeSpaceSaving)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// runOfItems is n distinct items starting at base: every counter
// ends at count 1, the tie-heavy shape.
func runOfItems(base, n int) stream.Slice {
	out := make(stream.Slice, n)
	for i := range out {
		out[i] = stream.Item(base + i)
	}
	return out
}

// checkSSMerge folds b into a with both implementations and requires
// byte-identical state plus a coherent index.
func checkSSMerge(t *testing.T, a, b *SpaceSaving) *SpaceSaving {
	t.Helper()
	want := refSSDecode(t, ssBytes(t, a))
	bBefore := ssBytes(t, b)
	if err := refSpaceSavingMerge(want, refSSDecode(t, bBefore)); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ssBytes(t, a), want.bytes()) {
		t.Fatalf("merged state differs from the reference (k=%d, |a|=%d, |b|=%d)", a.k, len(want.h), len(b.errs))
	}
	if !bytes.Equal(ssBytes(t, b), bBefore) {
		t.Fatal("Merge mutated its argument")
	}
	checkInvariants(t, &a.h)
	return a
}

func TestSpaceSavingMergeMatchesReference(t *testing.T) {
	const k = 512
	cases := map[string][2]stream.Slice{
		"random":           {zipfStream(40000, 5000, 1.1, 1), zipfStream(40000, 5000, 1.1, 2)},
		"tie-heavy":        {runOfItems(0, 3000), runOfItems(1500, 3000)},
		"tie-heavy-zipf":   {zipfStream(3000, 1<<20, 0.5, 3), zipfStream(3000, 1<<20, 0.5, 4)},
		"under-capacity":   {zipfStream(300, 200, 1.1, 5), zipfStream(300, 200, 1.1, 6)},
		"one-sided-full-a": {zipfStream(40000, 5000, 1.1, 7), zipfStream(100, 5000, 1.1, 8)},
		"one-sided-full-b": {zipfStream(100, 5000, 1.1, 9), zipfStream(40000, 5000, 1.1, 10)},
		"empty-receiver":   {nil, zipfStream(40000, 5000, 1.1, 11)},
		"empty-argument":   {zipfStream(40000, 5000, 1.1, 12), nil},
		"both-empty":       {nil, nil},
		"same-items":       {zipfStream(40000, 400, 1.1, 13), zipfStream(40000, 400, 1.3, 14)},
		"disjoint":         {runOfItems(0, 2000), runOfItems(1<<30, 2000)},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			checkSSMerge(t, ssOf(k, c[0]), ssOf(k, c[1]))
		})
	}
	t.Run("self", func(t *testing.T) {
		a := ssOf(k, zipfStream(40000, 5000, 1.1, 15))
		want := refSSDecode(t, ssBytes(t, a))
		if err := refSpaceSavingMerge(want, refSSDecode(t, ssBytes(t, a))); err != nil {
			t.Fatal(err)
		}
		if err := a.Merge(a); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ssBytes(t, a), want.bytes()) {
			t.Fatal("self-merge differs from the reference")
		}
	})
	t.Run("wide-keys", func(t *testing.T) {
		// Counts and items spanning all 64 bits: every radix byte varies.
		checkSSMerge(t, ssWide(t, k, 1), ssWide(t, k, 2))
		checkSSMerge(t, ssWide(t, k, 3), ssOf(k, zipfStream(40000, 5000, 1.1, 16)))
	})
	t.Run("random-shapes", func(t *testing.T) {
		r := rng.New(99)
		for trial := 0; trial < 200; trial++ {
			k := 1 + int(r.Uint64n(64))
			na, nb := int(r.Uint64n(400)), int(r.Uint64n(400))
			m := 1 + int(r.Uint64n(200))
			checkSSMerge(t, ssOf(k, zipfStream(na, m, 1.1, r.Uint64())), ssOf(k, zipfStream(nb, m, 1.1, r.Uint64())))
		}
	})
}

// TestSpaceSavingFold16MatchesReference is the collector's shape: 16
// states folded sequentially into a fresh accumulator, checked against
// the reference after every step.
func TestSpaceSavingFold16MatchesReference(t *testing.T) {
	const k = 1024
	acc := NewSpaceSaving(k)
	for i := 0; i < 16; i++ {
		acc = checkSSMerge(t, acc, ssOf(k, zipfStream(10000, 1<<16, 1.1, uint64(20+i))))
	}
	if acc.n != 16*10000 {
		t.Fatalf("N = %d", acc.n)
	}
}

// TestSpaceSavingFold16StaleMatchesReference folds 16 states into one
// accumulator without encoding it in between — checkSSMerge's encode
// rebuilds the heap after every step — so every merge after the first
// lands in a summary whose heap is stale, and compares only the final
// bytes with the reference fold. The arguments take turns being fed,
// decoded and merged, the three layouts Merge reads, and each must encode
// after the fold as it did before.
func TestSpaceSavingFold16StaleMatchesReference(t *testing.T) {
	for _, k := range []int{64, 1024} {
		acc, ref := NewSpaceSaving(k), newRefSpaceSaving(k)
		args := make([]*SpaceSaving, 16)
		before := make([][]byte, 16)
		for i := range args {
			s := zipfStream(10000, 1<<16, 1.1, uint64(40+i))
			build := func() *SpaceSaving {
				switch i % 3 {
				case 0:
					return ssOf(k, s)
				case 1:
					return ssClone(t, ssOf(k, s))
				}
				m := ssOf(k, s[:len(s)/2])
				if err := m.Merge(ssOf(k, s[len(s)/2:])); err != nil {
					t.Fatal(err)
				}
				return m
			}
			// The bytes come from a twin: encoding a merged state rebuilds
			// its heap, and the argument must reach Merge still merged.
			before[i], args[i] = ssBytes(t, build()), build()
			if err := refSpaceSavingMerge(ref, refSSDecode(t, before[i])); err != nil {
				t.Fatal(err)
			}
			if err := acc.Merge(args[i]); err != nil {
				t.Fatal(err)
			}
		}
		if acc.layout != ssMerged || args[2].layout != ssMerged {
			t.Fatal("the fold rebuilt the accumulator or a merged argument")
		}
		if !bytes.Equal(ssBytes(t, acc), ref.bytes()) {
			t.Fatalf("k=%d: the folded state differs from the reference", k)
		}
		for i, arg := range args {
			if !bytes.Equal(ssBytes(t, arg), before[i]) {
				t.Fatalf("k=%d: Merge mutated argument %d (layout %d)", k, i, i%3)
			}
		}
	}
}

// TestSpaceSavingMergeAllocs pins the kernel's allocation shape: the
// scratch the receiver keeps for a fed argument's sorted copy, grown only
// while too small, plus at most the receiver's three slab slices growing
// in the join — no map and no index.
func TestSpaceSavingMergeAllocs(t *testing.T) {
	const k = 1024
	a := ssOf(k, zipfStream(20000, 1<<16, 1.1, 1))
	b := ssOf(k, zipfStream(20000, 1<<16, 1.1, 2))
	if got := testing.AllocsPerRun(20, func() {
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
	}); got > 3 {
		t.Fatalf("SpaceSaving.Merge allocates %v objects per call, want <= 3", got)
	}
}

func TestSortEntriesMatchesComparisonSort(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{0, 1, 2, 17, 1000} {
		for _, bits := range []uint{2, 8, 20, 64} {
			es := make([]ssEntry, n)
			for i := range es {
				es[i] = ssEntry{item: stream.Item(r.Uint64() >> (64 - bits)), count: r.Uint64() >> (64 - bits), err: uint64(i)}
			}
			want := slices.Clone(es)
			slices.SortStableFunc(want, func(a, b ssEntry) int {
				if a.count != b.count {
					return cmp.Compare(b.count, a.count)
				}
				return cmp.Compare(a.item, b.item)
			})
			if got := sortEntries(es, make([]ssEntry, n)); !slices.Equal(got, want) {
				t.Fatalf("n=%d bits=%d: radix order differs from the comparison sort", n, bits)
			}
		}
	}
}

package sketch

import (
	"bytes"
	"fmt"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// Differential and property tests for the slab / permutation-heap /
// item-index kernels against the references in kernel_ref_test.go.

// diffStreams are the stream shapes the kernels must agree on.
func diffStreams(k int) map[string]stream.Slice {
	r := rng.New(42)
	runHeavy := make(stream.Slice, 0, 20000)
	for _, it := range zipfStream(800, 4*k+3, 1.1, 7) {
		for n := 1 + r.Uint64n(40); n > 0; n-- {
			runHeavy = append(runHeavy, it)
		}
	}
	wide := make(stream.Slice, 6000)
	keys := make([]stream.Item, 3*k+2)
	for i := range keys {
		keys[i] = stream.Item(r.Uint64() | 1<<63)
	}
	for i := range wide {
		wide[i] = keys[r.Uint64n(uint64(len(keys)))]
	}
	withZero := zipfStream(5000, 2*k+1, 1.1, 9)
	for i := range withZero {
		withZero[i]-- // rank 1, the heaviest item, becomes key 0
	}
	storm := append(runOfItems(0, k), runOfItems(1<<20, 10*k)...)
	return map[string]stream.Slice{
		"zipf":           zipfStream(20000, 8*k+5, 1.1, 1),
		"run-heavy":      runHeavy,
		"tie-storm":      storm, // fill to exactly k, then 10k replace-mins at one shared count
		"tie-storm-runs": append(storm, runHeavy[:2000]...),
		"under-capacity": zipfStream(3000, max(k/2, 1), 1.1, 3),
		"key-zero":       withZero,
		"wide-keys":      wide,
		"empty":          nil,
	}
}

var diffSplits = [][]int{{1}, {7}, {64}, {1, 64, 1024, 3, 37}, {1 << 20}}

// feedSplits feeds items through update in consecutive batches whose
// sizes cycle through sizes.
func feedSplits(update func([]stream.Item), items stream.Slice, sizes []int) {
	for off, si := 0, 0; off < len(items); si++ {
		end := min(off+sizes[si%len(sizes)], len(items))
		update(items[off:end])
		off = end
	}
}

func TestSpaceSavingMatchesReference(t *testing.T) {
	for _, k := range []int{1, 7, 64, 512} {
		for name, s := range diffStreams(k) {
			t.Run(fmt.Sprintf("k%d/%s", k, name), func(t *testing.T) {
				ref := newRefSpaceSaving(k)
				for _, it := range s {
					ref.Observe(it)
				}
				want := ref.bytes()
				refBatch := newRefSpaceSaving(k)
				refBatch.UpdateBatch(s)
				if !bytes.Equal(refBatch.bytes(), want) {
					t.Fatal("the two reference paths disagree")
				}

				one := NewSpaceSaving(k)
				for _, it := range s {
					one.Observe(it)
				}
				if !bytes.Equal(ssBytes(t, one), want) {
					t.Fatal("Observe state differs from the reference")
				}
				checkInvariants(t, &one.h)
				for _, sizes := range diffSplits {
					ss := NewSpaceSaving(k)
					feedSplits(ss.UpdateBatch, s, sizes)
					if !bytes.Equal(ssBytes(t, ss), want) {
						t.Fatalf("splits %v: UpdateBatch state differs from the reference", sizes)
					}
					checkInvariants(t, &ss.h)
				}

				// decode → update → marshal against update → marshal.
				half := len(s) / 2
				dec := ssClone(t, ssOf(k, s[:half]))
				dec.UpdateBatch(s[half:])
				checkInvariants(t, &dec.h)
				if !bytes.Equal(ssBytes(t, dec), want) {
					t.Fatal("decode → update differs from update")
				}

				// update → Merge → update → marshal, both sides of the merge.
				third := len(s) / 3
				a, b := ssOf(k, s[:third]), ssOf(k, s[third:2*third])
				ra, rb := newRefSpaceSaving(k), newRefSpaceSaving(k)
				ra.UpdateBatch(s[:third])
				rb.UpdateBatch(s[third : 2*third])
				if err := a.Merge(b); err != nil {
					t.Fatal(err)
				}
				if err := refSpaceSavingMerge(ra, rb); err != nil {
					t.Fatal(err)
				}
				for _, side := range []struct {
					got *SpaceSaving
					ref *refSpaceSaving
				}{{a, ra}, {b, rb}} {
					side.got.UpdateBatch(s[2*third:])
					side.ref.UpdateBatch(s[2*third:])
					if !bytes.Equal(ssBytes(t, side.got), side.ref.bytes()) {
						t.Fatal("update after Merge differs from the reference")
					}
					checkInvariants(t, &side.got.h)
				}
				checkInvariants(t, &a.h)
			})
		}
	}
}

// TestSpaceSavingInvariantsEveryOp checks the store after every single
// operation of a replace-min storm: fill to exactly k, then 10·k misses
// with hits and runs mixed in.
func TestSpaceSavingInvariantsEveryOp(t *testing.T) {
	const k = 33
	r := rng.New(3)
	ss, ref := NewSpaceSaving(k), newRefSpaceSaving(k)
	for i := 0; i < k; i++ {
		ss.Observe(stream.Item(i))
		ref.Observe(stream.Item(i))
		checkInvariants(t, &ss.h)
	}
	for op := 0; op < 10*k; op++ {
		batch := []stream.Item{stream.Item(1000 + op)}
		if op%3 == 0 {
			hit := ss.h.items[r.Uint64n(k)]
			batch = append(batch, hit, hit, hit, stream.Item(r.Uint64n(2*k)))
		}
		ss.UpdateBatch(batch)
		ref.UpdateBatch(batch)
		checkInvariants(t, &ss.h)
		if !bytes.Equal(ssBytes(t, ss), ref.bytes()) {
			t.Fatalf("op %d: state differs from the reference", op)
		}
	}
}

func tkBytes(t *testing.T, tk *TopK) []byte {
	t.Helper()
	b, err := wire.Marshal(tk)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTopKMatchesReference drives Update (rising, falling and tied
// scores) and decode round trips through both implementations, comparing
// bytes and checking invariants after every operation.
func TestTopKMatchesReference(t *testing.T) {
	for _, k := range []int{1, 5, 32} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			r := rng.New(uint64(k))
			tk, ref := NewTopK(k), newRefTopK(k)
			for op := 0; op < 4000; op++ {
				it := stream.Item(r.Uint64n(uint64(4*k + 1))) // includes key 0
				if op%7 == 0 {
					it |= 1 << 63
				}
				score := float64(r.Uint64n(8)) // 8 distinct scores: ties everywhere
				tk.Update(it, score)
				ref.Update(it, score)
				if op%500 == 499 {
					dec, err := wire.Decode(tkBytes(t, tk), DecodeTopK)
					if err != nil {
						t.Fatal(err)
					}
					tk, ref = dec, refTopKDecode(t, ref.bytes())
				}
				checkInvariants(t, &tk.h)
				if !bytes.Equal(tkBytes(t, tk), ref.bytes()) {
					t.Fatalf("op %d: state differs from the reference", op)
				}
			}
			h := &tk.h
			if want := 8*(cap(h.items)+cap(h.counts)) +
				4*(cap(h.heap)+cap(h.pos)+cap(h.index.ids)); tk.SpaceBytes() != want || NewTopK(k).SpaceBytes() != 0 {
				t.Fatalf("SpaceBytes = %d (empty: %d), want the %d bytes of the slices held (empty: 0)",
					tk.SpaceBytes(), NewTopK(k).SpaceBytes(), want)
			}
		})
	}
}

// TestObserveEstimateMatchesTwoCalls pins the fused kernels to the
// Observe-then-Estimate pair they replace: same return value at every
// item, same table at the end.
func TestObserveEstimateMatchesTwoCalls(t *testing.T) {
	s := append(zipfStream(20000, 3000, 1.1, 5), 0, 1<<63, ^stream.Item(0))
	cm, cmRef := NewCountMin(64, 4, rng.New(1)), NewCountMin(64, 4, rng.New(1))
	cs, csRef := NewCountSketch(64, 5, rng.New(2)), NewCountSketch(64, 5, rng.New(2))
	deep, deepRef := NewCountSketch(8, 20, rng.New(3)), NewCountSketch(8, 20, rng.New(3))
	for i, it := range s {
		if got, want := cm.ObserveEstimate(it), refCountMinObserveEstimate(cmRef, it); got != want {
			t.Fatalf("item %d: CountMin.ObserveEstimate = %d, Observe+Estimate = %d", i, got, want)
		}
		if got, want := cs.ObserveEstimate(it), refCountSketchObserveEstimate(csRef, it); got != want {
			t.Fatalf("item %d: CountSketch.ObserveEstimate = %d, Observe+Estimate = %d", i, got, want)
		}
		if got, want := deep.ObserveEstimate(it), refCountSketchObserveEstimate(deepRef, it); got != want {
			t.Fatalf("item %d: deep CountSketch.ObserveEstimate = %d, Observe+Estimate = %d", i, got, want)
		}
	}
	for _, pair := range [][2]interface{ MarshalBinary() ([]byte, error) }{{cm, cmRef}, {cs, csRef}, {deep, deepRef}} {
		got, _ := pair[0].MarshalBinary()
		want, _ := pair[1].MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Fatalf("%T state differs after ObserveEstimate", pair[0])
		}
	}
}

// homeKeys returns n distinct keys whose home slot in x is slot.
func homeKeys(x *ItemIndex, slot uint64, n int) []stream.Item {
	inv := uint64(1) // multiplicative inverse of the hash constant mod 2^64
	for i := 0; i < 6; i++ {
		inv *= 2 - 0x9e3779b97f4a7c15*inv
	}
	keys := make([]stream.Item, n)
	for i := range keys {
		keys[i] = stream.Item((slot<<x.shift|uint64(i))*inv ^ indexSeed)
	}
	return keys
}

// TestItemIndexSharedHomeSlot builds one probe chain that wraps the
// table end out of keys sharing a home slot, then deletes from the
// middle of it: every survivor must stay reachable after each
// backward shift.
func TestItemIndexSharedHomeSlot(t *testing.T) {
	var x ItemIndex
	x.Reset(16)
	size := uint64(len(x.ids))
	items := homeKeys(&x, size-2, 8) // chain: size-2, size-1, 0, 1, …
	items = append(items, homeKeys(&x, 0, 3)...)
	items = append(items, homeKeys(&x, size-1, 3)...)
	for id, it := range items {
		if id < 8 && x.home(it) != size-2 {
			t.Fatalf("key %d has home %d, want the shared slot %d", id, x.home(it), size-2)
		}
		x.Put(items, int32(id))
		checkIndex(t, &x, items)
	}
	if uint64(len(x.ids)) != size {
		t.Fatal("table grew: the chain no longer wraps")
	}
	if x.ids[size-1] == 0 || x.ids[0] == 0 {
		t.Fatal("chain does not wrap the table end")
	}
	live := map[int32]bool{}
	for id := range items {
		live[int32(id)] = true
	}
	for _, victim := range []int32{3, 0, 9, 7, 12, 1, 13, 5} { // middle, head, tail of chains
		x.Delete(items, victim)
		delete(live, victim)
		checkIndex(t, &x, items)
		for id, it := range items {
			if got, ok := x.Get(items, it); ok != live[int32(id)] || ok && got != int32(id) {
				t.Fatalf("after deleting %d: Get(items[%d]) = %d, %v; want found = %v", victim, id, got, ok, live[int32(id)])
			}
		}
	}
	if x.n != len(live) {
		t.Fatalf("Len = %d, want %d", x.n, len(live))
	}
}

// TestItemIndexMatchesMap runs random put/delete/get traffic, growth
// and resets included, against the builtin map.
func TestItemIndexMatchesMap(t *testing.T) {
	r := rng.New(8)
	var x ItemIndex
	var items []stream.Item // the slab: deleted entries leave dead slots
	want := map[stream.Item]int32{}
	if _, ok := x.Get(items, 0); ok || x.n != 0 || x.SpaceBytes() != 0 {
		t.Fatal("zero index is not empty")
	}
	for op := 0; op < 20000; op++ {
		it := stream.Item(r.Uint64n(300)) // includes key 0
		if op%2 == 0 {
			it = it<<56 | it // keys differing in the high bits only matter too
		}
		got, found := x.Get(items, it)
		if id, ok := want[it]; ok != found || ok && got != id {
			t.Fatalf("op %d: Get(%d) = %d, %v; want %d, %v", op, it, got, found, id, ok)
		}
		if !found {
			items = append(items, it)
			want[it] = int32(len(items) - 1)
			x.Put(items, want[it])
		} else if r.Uint64n(3) > 0 {
			x.Delete(items, got)
			delete(want, it)
		}
		if op%4096 == 4095 {
			x.Reset(0)
			items = items[:0]
			clear(want)
		}
		if x.n != len(want) {
			t.Fatalf("op %d: Len = %d, want %d", op, x.n, len(want))
		}
		if op%64 == 0 {
			checkIndex(t, &x, items)
		}
	}
}

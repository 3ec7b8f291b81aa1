package sketch

import (
	"bytes"
	"maps"
	"math"
	"slices"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// refCounts is the exact counting store as it stood before ItemCounts —
// a Go map added to key by key, serialized through Writer.Freq and read
// back through Reader.Freq — kept as the differential reference: whatever
// path a frequency vector took, ItemCounts must write the reference's
// bytes and walk the reference's counts.
type refCounts struct {
	counts map[stream.Item]uint64
	n      uint64
}

func newRefCounts() *refCounts { return &refCounts{counts: map[stream.Item]uint64{}} }

func (c *refCounts) observe(it stream.Item) {
	c.counts[it]++
	c.n++
}

func (c *refCounts) updateBatch(items []stream.Item) {
	for _, it := range items {
		c.counts[it]++
	}
	c.n += uint64(len(items))
}

func (c *refCounts) merge(other *refCounts) {
	for it, cnt := range other.counts {
		c.counts[it] += cnt
	}
	c.n += other.n
}

// Encode writes the map as a sorted item run, the layout the store's own
// Encode must match.
func (c *refCounts) Encode(w *wire.Writer) { writeFreq(w, c.counts) }

func decodeRefCounts(t *testing.T, payload []byte) *refCounts {
	t.Helper()
	r := wire.NewReader(payload)
	counts, sum := readFreq(r)
	if err := r.Done(); err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	return &refCounts{counts: counts, n: sum}
}

// orderedCounts is the counts by increasing key: what a settled store's
// count slab holds.
func (c *refCounts) orderedCounts() []uint64 {
	out := make([]uint64, 0, len(c.counts))
	for _, it := range sortedKeys(c.counts) {
		out = append(out, c.counts[it])
	}
	return out
}

// sum is ItemCounts.Sum's definition over the map: Σ φ_j·g(j), the
// terms added in increasing j.
func (c *refCounts) sum(g func(uint64) float64) float64 {
	phi := map[uint64]uint64{}
	for _, cnt := range c.counts {
		phi[cnt]++
	}
	var total float64
	for _, j := range slices.Sorted(maps.Keys(phi)) {
		total += float64(phi[j]) * g(j)
	}
	return total
}

// sqrtCount is a g whose terms round, so a change in the order Sum adds
// them in shows.
func sqrtCount(c uint64) float64 { return math.Sqrt(float64(c)) }

// clone copies a store slab for slab, arrival order included, so a check
// can order the copy and leave the store under test as fed as it was.
func (s *ItemCounts) clone() *ItemCounts {
	return &ItemCounts{items: slices.Clone(s.items), counts: slices.Clone(s.counts), n: s.n, sorted: s.sorted}
}

func (s *ItemCounts) isOrdered() bool { return s.sorted == len(s.items) }

func (s *ItemCounts) state() string {
	switch {
	case s.Len() == 0:
		return "empty"
	case s.isOrdered():
		return "ordered"
	}
	return "fed"
}

func mustMarshalRun(t *testing.T, e wire.Encoder) []byte {
	t.Helper()
	payload, err := wire.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// checkAgainstRef holds s to ref without changing either: same length,
// same total, the reference's payload bytes (exactly sized), the
// reference's counts in key order.
func checkAgainstRef(t *testing.T, s *ItemCounts, ref *refCounts) {
	t.Helper()
	if s.Len() != len(ref.counts) || s.N() != ref.n {
		t.Fatalf("store holds %d keys / %d items, reference %d / %d", s.Len(), s.N(), len(ref.counts), ref.n)
	}
	c := s.clone()
	payload, want := mustMarshalRun(t, c), mustMarshalRun(t, ref)
	if !bytes.Equal(payload, want) {
		t.Fatalf("payload differs from the map reference's (%d vs %d bytes)", len(payload), len(want))
	}
	if cap(payload) != len(payload) {
		t.Fatalf("sizing pass of an ordered store counted %d bytes, wrote %d", cap(payload), len(payload))
	}
	c.Settle()
	if !slices.Equal(c.counts, ref.orderedCounts()) {
		t.Fatal("counts in key order differ from the map reference's")
	}
	if !slices.IsSorted(c.items) {
		t.Fatal("an ordered store's slab is not in key order")
	}
}

// scheduleKey draws keys that collide often and differ in every byte
// position between them, so the radix passes all run.
func scheduleKey(r *rng.Xoshiro256) stream.Item {
	return stream.Item(r.Uint64n(40)+1) << (8 * r.Uint64n(8))
}

// TestItemCountsMatchesMapReference drives a pool of stores and map
// references through one random schedule of observe / batch / merge /
// encode+decode / sum / settle / reset, checking every touched store
// against its reference after every step, and requires the schedule to
// have merged every shape: ordered into ordered, fed into ordered, ordered
// into fed, fed into fed, and each into an empty receiver. A settle is
// checked twice: as it leaves the store (in order, in the slabs it had,
// unindexed) and after the two updates that follow it — a key the settle
// moved must be found where it now lies, a new one appended behind.
func TestItemCountsMatchesMapReference(t *testing.T) {
	r := rng.New(21)
	const pool = 6
	stores, refs := make([]*ItemCounts, pool), make([]*refCounts, pool)
	for i := range stores {
		stores[i], refs[i] = new(ItemCounts), newRefCounts()
	}
	shapes, settles, sums := map[string]int{}, map[string]int{}, map[string]int{}
	for step := 0; step < 6000; step++ {
		i := int(r.Uint64n(pool))
		s, ref := stores[i], refs[i]
		switch op := r.Uint64n(10); {
		case op < 3:
			it := scheduleKey(r)
			s.Observe(it)
			ref.observe(it)
		case op < 5:
			batch := make([]stream.Item, r.Uint64n(60))
			for k := range batch {
				batch[k] = scheduleKey(r)
			}
			s.UpdateBatch(batch)
			ref.updateBatch(batch)
		case op < 8:
			j := int(r.Uint64n(pool))
			o := stores[j]
			// Merging back and forth doubles counts; stay clear of the 64
			// bits a run's counts may sum to.
			if j == i || s.N()+o.N() > 1<<60 {
				continue
			}
			shape := o.state() + " into " + s.state()
			shapes[shape]++
			before := o.clone()
			s.Merge(o)
			ref.merge(refs[j])
			if !slices.Equal(o.items, before.items) || !slices.Equal(o.counts, before.counts) ||
				o.sorted != before.sorted || o.n != before.n {
				t.Fatalf("step %d: Merge wrote to its argument (%s)", step, shape)
			}
			if !s.isOrdered() {
				t.Fatalf("step %d: Merge left its receiver unordered (%s)", step, shape)
			}
		case op < 9:
			payload := mustMarshalRun(t, s.clone())
			back := new(ItemCounts)
			rd := wire.NewReader(payload)
			back.Decode(rd, math.MaxUint64)
			if err := rd.Done(); err != nil {
				t.Fatalf("step %d: decode: %v", step, err)
			}
			if back.SpaceBytes() != 16*back.Len() {
				t.Fatalf("step %d: decoded store takes %d bytes for %d keys, want two exact slabs and no index",
					step, back.SpaceBytes(), back.Len())
			}
			stores[i], refs[i] = back, decodeRefCounts(t, mustMarshalRun(t, ref))
		default:
			switch r.Uint64n(5) {
			case 0:
				stores[i], refs[i] = new(ItemCounts), newRefCounts()
			case 1:
				// Sum reads the store as it lies: slabs, ordered prefix and
				// index stay, and the answer is the reference's.
				before, index := s.clone(), s.index
				index.ids = slices.Clone(index.ids)
				got := s.Sum(sqrtCount)
				if !slices.Equal(s.items, before.items) || !slices.Equal(s.counts, before.counts) ||
					s.sorted != before.sorted || s.index.n != index.n || !slices.Equal(s.index.ids, index.ids) {
					t.Fatalf("step %d: Sum wrote to a %s store", step, s.state())
				}
				if want := ref.sum(sqrtCount); got != want {
					t.Fatalf("step %d: Sum = %v, the reference's profile sum %v", step, got, want)
				}
				sums[s.state()]++
			default:
				was, slabCap := s.state(), cap(s.items)
				settles[was]++
				s.Settle()
				// An ordered store keeps the index its updates of known keys
				// built: nothing moved.
				if !s.isOrdered() || cap(s.items) != slabCap || (was == "fed" && s.index.SpaceBytes() != 0) {
					t.Fatalf("step %d: settle left %d of %d keys ordered, slab capacity %d → %d, an index of %d bytes",
						step, s.sorted, s.Len(), slabCap, cap(s.items), s.index.SpaceBytes())
				}
				checkAgainstRef(t, s, ref)
				if s.Len() > 0 {
					known := s.items[r.Uint64n(uint64(s.Len()))]
					s.Observe(known)
					ref.observe(known)
				}
				fresh := stream.Item(1<<63 | uint64(step)) // no schedule key has the top bit
				s.Observe(fresh)
				ref.observe(fresh)
				if s.items[s.Len()-1] != fresh || s.sorted != s.Len()-1 {
					t.Fatalf("step %d: a new key after a settle did not land behind the ordered prefix", step)
				}
			}
		}
		checkAgainstRef(t, stores[i], refs[i])
	}
	for _, state := range []string{"fed", "ordered", "empty"} {
		if settles[state] == 0 {
			t.Errorf("the schedule never settled a store that was %s", state)
		}
		if sums[state] == 0 {
			t.Errorf("the schedule never summed a store that was %s", state)
		}
	}
	for _, shape := range []string{"ordered into ordered", "fed into ordered", "ordered into fed", "fed into fed",
		"ordered into empty", "fed into empty"} {
		if shapes[shape] == 0 {
			t.Errorf("the schedule never merged %s", shape)
		}
	}
}

// TestItemCountsSpaceBytes pins the accounting convention: the capacity
// of the two slabs at 8 bytes an element, plus the index table while the
// store has one.
func TestItemCountsSpaceBytes(t *testing.T) {
	var s ItemCounts
	if s.SpaceBytes() != 0 {
		t.Fatalf("empty store takes %d bytes", s.SpaceBytes())
	}
	for i := 0; i < 1000; i++ {
		s.Observe(stream.Item(i*7919%613 + 1))
	}
	if want := 8*cap(s.items) + 8*cap(s.counts) + 4*cap(s.index.ids); s.SpaceBytes() != want || len(s.index.ids) == 0 {
		t.Fatalf("fed store reports %d bytes, holds %d (index of %d slots)", s.SpaceBytes(), want, len(s.index.ids))
	}
	// Ordered in place, the store keeps the slabs it grew; ordered by Merge
	// (or Decode), it gets exact ones. Neither has an index.
	slabs := 8*cap(s.items) + 8*cap(s.counts)
	s.Settle()
	if s.SpaceBytes() != slabs || slabs <= 16*s.Len() {
		t.Fatalf("store ordered in place reports %d bytes, want the %d of the slabs it had: index dropped", s.SpaceBytes(), slabs)
	}
	var acc ItemCounts
	acc.Merge(&s)
	if want := 16 * acc.Len(); acc.SpaceBytes() != want {
		t.Fatalf("merged store reports %d bytes, want %d: exact slabs, no index", acc.SpaceBytes(), want)
	}
	s.Observe(1)
	if s.SpaceBytes() <= slabs {
		t.Fatal("an update after ordering did not bring the index back")
	}
}

// TestItemCountsSettleKeepsItsSlabs pins the steady state of a replica
// between flushes: settle, then a new key. The settle joins the arrivals
// into the slab the store has and the append that follows finds the spare
// capacity still there, so neither allocates a slab — what is left is the
// sorted copy of the one arrival (two one-element slices) and the index
// the update brings back.
func TestItemCountsSettleKeepsItsSlabs(t *testing.T) {
	var s ItemCounts
	for i := 0; i < 1000; i++ {
		s.Observe(stream.Item(i*7919%1009 + 1))
	}
	const runs = 20
	if spare := cap(s.items) - s.Len(); spare <= runs+1 {
		t.Fatalf("the fixture has %d spare slab entries, the test needs more than %d", spare, runs+1)
	}
	slab, next := &s.items[0], stream.Item(1<<40)
	allocs := testing.AllocsPerRun(runs, func() {
		s.Settle()
		s.Observe(next)
		next += 3
	})
	if allocs > 3 || &s.items[0] != slab {
		t.Fatalf("settle → observe of a new key makes %v allocations (slab moved: %v), want ≤ 3 and the slab where it was",
			allocs, &s.items[0] != slab)
	}
	if s.Len() != 1000+runs+1 || s.sorted != s.Len()-1 {
		t.Fatalf("store holds %d keys with %d ordered after %d settles", s.Len(), s.sorted, runs+1)
	}
}

// TestItemCountsDecodeAllocations pins decode at the two slabs and the
// reader: no map, no index, nothing per entry.
func TestItemCountsDecodeAllocations(t *testing.T) {
	var s ItemCounts
	r := rng.New(5)
	for i := 0; i < 20000; i++ {
		s.Observe(stream.Item(r.Uint64n(1 << 30)))
	}
	payload := mustMarshalRun(t, &s)
	if n := testing.AllocsPerRun(10, func() {
		var back ItemCounts
		rd := wire.NewReader(payload)
		back.Decode(rd, math.MaxUint64)
		if rd.Done() != nil || back.Len() != s.Len() {
			t.Fatal("decode failed")
		}
	}); n > 3 {
		t.Fatalf("decoding %d keys makes %v allocations, want the reader and two slabs", s.Len(), n)
	}
}

// FuzzItemCountsSplit deals one item sequence out to up to eight replicas
// at the fuzzer's choice, item by item, settles the replicas the fuzzer
// picks (as their shard workers would at a Sync barrier), folds all of them
// into a fresh store, and holds the fold to the store and the map reference
// that saw the sequence whole: same payload bytes, same counts in key order,
// and the replicas untouched by the fold.
func FuzzItemCountsSplit(f *testing.F) {
	f.Add([]byte{3, 0b0101, 0, 1, 0, 1, 1, 0, 2, 2, 0, 0x41, 1, 0, 0x82, 200, 7})
	f.Add([]byte{1, 0, 0, 5, 5})
	f.Add([]byte{8, 0xff})
	f.Add(bytes.Repeat([]byte{7, 0xf3, 9, 1}, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		replicas := make([]*ItemCounts, int(data[0])%8+1)
		for i := range replicas {
			replicas[i] = new(ItemCounts)
		}
		whole, ref := new(ItemCounts), newRefCounts()
		// Three bytes an item: which replica and which byte of the key the
		// 16-bit value sits at, then the value.
		for rec := data[2:]; len(rec) >= 3; rec = rec[3:] {
			it := stream.Item(uint64(rec[1])<<8|uint64(rec[2])) << (8 * (uint(rec[0]) >> 4 % 7))
			replicas[int(rec[0]&0x0f)%len(replicas)].Observe(it)
			whole.Observe(it)
			ref.observe(it)
		}
		before := make([]*ItemCounts, len(replicas))
		for i, rep := range replicas {
			if data[1]>>i&1 == 1 { // bit i of the second byte settles replica i
				rep.Settle()
			}
			before[i] = rep.clone()
		}
		acc := new(ItemCounts)
		for _, rep := range replicas {
			acc.Merge(rep)
		}
		for i, rep := range replicas {
			if !slices.Equal(rep.items, before[i].items) || !slices.Equal(rep.counts, before[i].counts) || rep.sorted != before[i].sorted {
				t.Fatalf("the fold wrote to replica %d", i)
			}
		}
		checkAgainstRef(t, acc, ref)
		checkAgainstRef(t, whole, ref)
		back := new(ItemCounts)
		rd := wire.NewReader(mustMarshalRun(t, acc))
		back.Decode(rd, math.MaxUint64)
		if err := rd.Done(); err != nil {
			t.Fatal(err)
		}
		checkAgainstRef(t, back, ref)
	})
}

// zipfCounts feeds a store n Zipf(1.1) draws over 2¹⁸ keys, relabelled by
// x ↦ a·x + b (a odd; a = 1, b = 0 is the identity), and leaves it fed.
func zipfCounts(n int, a, b stream.Item) *ItemCounts {
	r, z := rng.New(3), rng.NewZipf(1<<18, 1.1)
	var s ItemCounts
	for range n {
		s.Observe(a*stream.Item(z.Draw(r)) + b)
	}
	return &s
}

// TestItemCountsSumMatchesCompensatedReference holds Sum, which adds one
// rounded term per distinct count, to a compensated (Neumaier) sum of the
// per-item terms, to 1e-12 relative, for the entropy plug-in's term, a
// binomial coefficient and a square root.
func TestItemCountsSumMatchesCompensatedReference(t *testing.T) {
	s := zipfCounts(400000, 1, 0)
	n := float64(s.N())
	for name, g := range map[string]func(uint64) float64{
		"q·lg q": func(c uint64) float64 { q := float64(c) / n; return q * math.Log2(q) },
		"C(c,2)": func(c uint64) float64 { return stream.BinomialCoeff(c, 2) },
		"√c":     sqrtCount,
	} {
		var sum, comp float64
		for _, c := range s.counts {
			x := g(c)
			next := sum + x
			if math.Abs(sum) >= math.Abs(x) {
				comp += (sum - next) + x
			} else {
				comp += (x - next) + sum
			}
			sum = next
		}
		want, got := sum+comp, s.Sum(g)
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s: Sum = %v, compensated reference %v (relative %.2g)", name, got, want, math.Abs(got-want)/math.Abs(want))
		}
	}
}

// TestItemCountsSumIgnoresRelabelling requires Sum to be bit-identical
// whatever the items are called and whatever layout the store is in: fed,
// settled, merged and decoded, under the identity and a random bijection
// on the keys.
func TestItemCountsSumIgnoresRelabelling(t *testing.T) {
	r := rng.New(4)
	a, b := stream.Item(r.Uint64()|1), stream.Item(r.Uint64())
	base := zipfCounts(200000, 1, 0)
	n := float64(base.N())
	g := func(c uint64) float64 { q := float64(c) / n; return q * math.Log2(q) }
	want := base.Sum(g)
	for _, label := range [][2]stream.Item{{1, 0}, {a, b}} {
		s := zipfCounts(200000, label[0], label[1])
		var merged, back ItemCounts
		merged.Merge(s)
		rd := wire.NewReader(mustMarshalRun(t, s.clone()))
		back.Decode(rd, math.MaxUint64)
		if err := rd.Done(); err != nil {
			t.Fatal(err)
		}
		fed := s.Sum(g)
		s.Settle()
		for layout, got := range map[string]float64{"fed": fed, "settled": s.Sum(g), "merged": merged.Sum(g), "decoded": back.Sum(g)} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("keys ×%#x + %#x, %s: Sum = %v, want %v bit for bit", label[0], label[1], layout, got, want)
			}
		}
	}
}

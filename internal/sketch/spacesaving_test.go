package sketch

import (
	"testing"

	"substream/internal/stream"
)

// ssCount is ss's counter of it, 0 for an item it does not track. It
// reads the slab only, so it works on every layout.
func ssCount(ss *SpaceSaving, it stream.Item) uint64 {
	var count uint64
	ss.Each(func(c Counter) {
		if c.Item == it {
			count = c.Count
		}
	})
	return count
}

func TestSpaceSavingExactWhenFits(t *testing.T) {
	ss := NewSpaceSaving(10)
	s := stream.Slice{1, 1, 1, 2, 2, 3}
	for _, it := range s {
		ss.Observe(it)
	}
	for it, want := range map[stream.Item]uint64{1: 3, 2: 2, 3: 1} {
		if got := ssCount(ss, it); got != want {
			t.Fatalf("estimate(%d) = %d, want %d", it, got, want)
		}
	}
	for _, c := range ss.Counters() {
		if c.Err != 0 {
			t.Fatalf("error nonzero with ample counters: %+v", c)
		}
	}
}

func TestSpaceSavingBounds(t *testing.T) {
	// For every tracked item: f ≤ count ≤ f + err, and err ≤ N/k.
	s := zipfStream(100000, 5000, 1.1, 1)
	const k = 200
	ss := NewSpaceSaving(k)
	for _, it := range s {
		ss.Observe(it)
	}
	f := stream.NewFreq(s)
	maxErr := ss.n / uint64(k)
	for _, c := range ss.Counters() {
		truth := f[c.Item]
		if c.Count < truth {
			t.Fatalf("item %d: count %d < true %d", c.Item, c.Count, truth)
		}
		if c.Count-c.Err > truth {
			t.Fatalf("item %d: guaranteed %d > true %d", c.Item, c.Count-c.Err, truth)
		}
		if c.Err > maxErr {
			t.Fatalf("item %d: err %d > N/k = %d", c.Item, c.Err, maxErr)
		}
	}
}

func TestSpaceSavingGuaranteesHeavyItems(t *testing.T) {
	// Every item with f > N/k must be tracked.
	s := zipfStream(50000, 1000, 1.4, 2)
	const k = 100
	ss := NewSpaceSaving(k)
	for _, it := range s {
		ss.Observe(it)
	}
	f := stream.NewFreq(s)
	threshold := ss.n / uint64(k)
	for it, c := range f {
		if c > threshold && !ss.Tracked(it) {
			t.Fatalf("heavy item %d (f=%d > %d) not tracked", it, c, threshold)
		}
	}
}

func TestSpaceSavingCountersSorted(t *testing.T) {
	ss := NewSpaceSaving(50)
	s := zipfStream(10000, 200, 1.0, 3)
	for _, it := range s {
		ss.Observe(it)
	}
	cs := ss.Counters()
	for i := 1; i < len(cs); i++ {
		if cs[i].Count > cs[i-1].Count {
			t.Fatalf("counters not sorted at %d", i)
		}
	}
}

func TestSpaceSavingUntracked(t *testing.T) {
	ss := NewSpaceSaving(2)
	ss.Observe(1)
	if ssCount(ss, 99) != 0 {
		t.Fatal("untracked estimate nonzero")
	}
	if ss.Tracked(99) {
		t.Fatal("untracked reported tracked")
	}
	if ss.K() != 2 || ss.n != 1 {
		t.Fatalf("K=%d N=%d", ss.K(), ss.n)
	}
}

func TestSpaceSavingCapacity(t *testing.T) {
	ss := NewSpaceSaving(5)
	for i := 0; i < 10000; i++ {
		ss.Observe(stream.Item(i%50 + 1))
	}
	if len(ss.Counters()) > 5 {
		t.Fatalf("tracked %d > 5 counters", len(ss.Counters()))
	}
	h := &ss.h
	if want := 8*(cap(h.items)+cap(h.counts)+cap(ss.errs)) +
		4*(cap(h.heap)+cap(h.pos)+cap(h.index.ids)); ss.SpaceBytes() != want {
		t.Fatalf("SpaceBytes = %d, want the %d bytes of the slices held", ss.SpaceBytes(), want)
	}
	if empty := NewSpaceSaving(1 << 20).SpaceBytes(); empty != 0 {
		t.Fatalf("an empty summary reports %d bytes", empty)
	}
}

func TestSpaceSavingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSpaceSaving(0) did not panic")
		}
	}()
	NewSpaceSaving(0)
}

func BenchmarkSpaceSavingObserve(b *testing.B) {
	ss := NewSpaceSaving(1024)
	for i := 0; i < b.N; i++ {
		ss.Observe(stream.Item(i%100000 + 1))
	}
}

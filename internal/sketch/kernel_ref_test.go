package sketch

import (
	"testing"

	"substream/internal/stream"
	"substream/internal/wire"
)

// This file keeps the update kernels as they stood before the slab /
// permutation-heap / item-index rewrite — entries stored in heap order,
// a map[stream.Item]int rewritten on every sift swap — verbatim, as the
// differential references: the rewritten SpaceSaving and TopK must leave
// byte-identical serialized state for every stream and batch split.

type refSpaceSaving struct {
	k     int
	h     []ssEntry // min-heap on count
	index map[stream.Item]int
	n     uint64
}

func newRefSpaceSaving(k int) *refSpaceSaving {
	return &refSpaceSaving{k: k, index: make(map[stream.Item]int, k)}
}

func (ss *refSpaceSaving) Observe(it stream.Item) {
	ss.n++
	if pos, ok := ss.index[it]; ok {
		ss.h[pos].count++
		ss.down(pos)
		return
	}
	if len(ss.h) < ss.k {
		ss.h = append(ss.h, ssEntry{item: it, count: 1})
		ss.index[it] = len(ss.h) - 1
		ss.up(len(ss.h) - 1)
		return
	}
	// Replace the minimum counter, inheriting its count as error.
	min := ss.h[0]
	delete(ss.index, min.item)
	ss.h[0] = ssEntry{item: it, count: min.count + 1, err: min.count}
	ss.index[it] = 0
	ss.down(0)
}

func (ss *refSpaceSaving) up(i int) int {
	for i > 0 {
		parent := (i - 1) / 2
		if ss.h[parent].count <= ss.h[i].count {
			break
		}
		ss.swap(i, parent)
		i = parent
	}
	return i
}

func (ss *refSpaceSaving) down(i int) int {
	n := len(ss.h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && ss.h[l].count < ss.h[smallest].count {
			smallest = l
		}
		if r < n && ss.h[r].count < ss.h[smallest].count {
			smallest = r
		}
		if smallest == i {
			return i
		}
		ss.swap(i, smallest)
		i = smallest
	}
}

func (ss *refSpaceSaving) swap(i, j int) {
	ss.h[i], ss.h[j] = ss.h[j], ss.h[i]
	ss.index[ss.h[i].item] = i
	ss.index[ss.h[j].item] = j
}

func (ss *refSpaceSaving) UpdateBatch(items []stream.Item) {
	for i := 0; i < len(items); {
		it := items[i]
		j := i + 1
		for j < len(items) && items[j] == it {
			j++
		}
		pos, ok := ss.index[it]
		if !ok {
			// Admission or replace-min: the Observe policy, inlined so
			// the rest of the run can sift from the admitted position
			// without a second index lookup.
			ss.n++
			i++
			if len(ss.h) < ss.k {
				ss.h = append(ss.h, ssEntry{item: it, count: 1})
				ss.index[it] = len(ss.h) - 1
				pos = ss.up(len(ss.h) - 1)
			} else {
				min := ss.h[0]
				delete(ss.index, min.item)
				ss.h[0] = ssEntry{item: it, count: min.count + 1, err: min.count}
				ss.index[it] = 0
				pos = ss.down(0)
			}
		}
		for ; i < j; i++ {
			ss.n++
			ss.h[pos].count++
			pos = ss.down(pos)
		}
	}
}

func (ss *refSpaceSaving) bytes() []byte {
	w := &wire.Writer{}
	w.Header(TagSpaceSaving)
	w.U32(uint32(ss.k))
	w.U64(ss.n)
	w.U32(uint32(len(ss.h)))
	for _, e := range ss.h {
		w.U64(uint64(e.item))
		w.Uvarint(e.count)
		w.Uvarint(e.err)
	}
	return w.Bytes()
}

// refSSDecode is the old UnmarshalSpaceSaving minus validation (its
// input is always a payload the real decoder accepts).
func refSSDecode(t testing.TB, data []byte) *refSpaceSaving {
	t.Helper()
	r := wire.NewReader(data)
	r.Header(TagSpaceSaving)
	ss := newRefSpaceSaving(int(r.U32()))
	ss.n = r.U64()
	count := int(r.U32())
	for i := 0; i < count; i++ {
		it := stream.Item(r.U64())
		ss.h = append(ss.h, ssEntry{item: it, count: r.Uvarint(), err: r.Uvarint()})
		ss.index[it] = i
	}
	for i := len(ss.h)/2 - 1; i >= 0; i-- {
		ss.down(i)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	return ss
}

type refTopK struct {
	k     int
	h     []refTkEntry
	index map[stream.Item]int // item → position in h
}

type refTkEntry struct {
	item  stream.Item
	count float64
}

func newRefTopK(k int) *refTopK {
	return &refTopK{k: k, index: make(map[stream.Item]int, k)}
}

func (t *refTopK) Update(it stream.Item, count float64) {
	if pos, ok := t.index[it]; ok {
		t.h[pos].count = count
		t.fix(pos)
		return
	}
	if len(t.h) < t.k {
		t.h = append(t.h, refTkEntry{item: it, count: count})
		t.index[it] = len(t.h) - 1
		t.up(len(t.h) - 1)
		return
	}
	if count > t.h[0].count {
		delete(t.index, t.h[0].item)
		t.h[0] = refTkEntry{item: it, count: count}
		t.index[it] = 0
		t.down(0)
	}
}

func (t *refTopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.h[parent].count <= t.h[i].count {
			break
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *refTopK) down(i int) {
	n := len(t.h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && t.h[l].count < t.h[smallest].count {
			smallest = l
		}
		if r < n && t.h[r].count < t.h[smallest].count {
			smallest = r
		}
		if smallest == i {
			return
		}
		t.swap(i, smallest)
		i = smallest
	}
}

func (t *refTopK) fix(i int) {
	t.up(i)
	t.down(i)
}

func (t *refTopK) swap(i, j int) {
	t.h[i], t.h[j] = t.h[j], t.h[i]
	t.index[t.h[i].item] = i
	t.index[t.h[j].item] = j
}

func (t *refTopK) bytes() []byte {
	w := &wire.Writer{}
	w.Header(TagTopK)
	w.U32(uint32(t.k))
	w.U32(uint32(len(t.h)))
	for _, e := range t.h {
		w.U64(uint64(e.item))
		w.F64(e.count)
	}
	return w.Bytes()
}

// refTopKDecode is the old UnmarshalTopK minus validation.
func refTopKDecode(t testing.TB, data []byte) *refTopK {
	t.Helper()
	r := wire.NewReader(data)
	r.Header(TagTopK)
	tk := newRefTopK(int(r.U32()))
	count := int(r.U32())
	for i := 0; i < count; i++ {
		it := stream.Item(r.U64())
		tk.h = append(tk.h, refTkEntry{item: it, count: r.F64()})
		tk.index[it] = i
	}
	for i := len(tk.h)/2 - 1; i >= 0; i-- {
		tk.down(i)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	return tk
}

// refCountMinObserveEstimate and refCountSketchObserveEstimate are the
// two-call loops the heavy-hitter estimators ran per item before
// ObserveEstimate fused them.
func refCountMinObserveEstimate(cm *CountMin, it stream.Item) uint64 {
	cm.Observe(it)
	return cm.Estimate(it)
}

func refCountSketchObserveEstimate(cs *CountSketch, it stream.Item) int64 {
	cs.Observe(it)
	return cs.Estimate(it)
}

// checkInvariants requires index ↔ slab ↔ heap ↔ pos to be mutually
// consistent and the min-heap order to hold.
func checkInvariants[C uint64 | float64](t testing.TB, h *countHeap[C]) {
	t.Helper()
	n := len(h.items)
	if len(h.counts) != n || len(h.heap) != n || len(h.pos) != n || h.index.n != n {
		t.Fatalf("sizes: items %d counts %d heap %d pos %d index %d",
			n, len(h.counts), len(h.heap), len(h.pos), h.index.n)
	}
	for i, id := range h.heap {
		if id < 0 || int(id) >= n || int(h.pos[id]) != i {
			t.Fatalf("heap[%d] = %d but pos[%d] = %d", i, id, id, h.pos[id])
		}
		if i > 0 && h.counts[h.heap[(i-1)/2]] > h.counts[id] {
			t.Fatalf("heap order broken at %d: parent %v > child %v", i, h.counts[h.heap[(i-1)/2]], h.counts[id])
		}
	}
	for id, it := range h.items {
		if got, ok := h.find(it); !ok || int(got) != id {
			t.Fatalf("index[%d] = %d, %v; want slab id %d", it, got, ok, id)
		}
	}
	checkIndex(t, &h.index, h.items)
}

// checkIndex requires every indexed slab entry to be reachable from its
// home slot without crossing an empty one, and the table to respect its
// load bound.
func checkIndex(t testing.TB, x *ItemIndex, items []stream.Item) {
	t.Helper()
	live := 0
	mask := uint64(len(x.ids) - 1)
	for s, v := range x.ids {
		if v == 0 {
			continue
		}
		live++
		for p := x.home(items[v-1]); p != uint64(s); p = (p + 1) & mask {
			if x.ids[p] == 0 {
				t.Fatalf("item %d at slot %d is cut off from its home by empty slot %d", items[v-1], s, p)
			}
		}
	}
	if live != x.n || 2*live > len(x.ids) {
		t.Fatalf("index holds %d live slots, n = %d, table %d", live, x.n, len(x.ids))
	}
}

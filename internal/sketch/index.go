package sketch

import (
	"math/bits"
	"math/rand/v2"

	"substream/internal/stream"
)

// ItemIndex finds an item's position in the slab (a dense []stream.Item)
// of the summary that owns it: one open-addressing table of int32 slab
// ids (multiplicative hash, linear probing, backward-shift delete,
// load ≤ 1/2) shared by SpaceSaving, TopK and the level-set repetitions.
// Keys live only in the slab, which every method takes: a slot stores 4
// bytes and a probe compares against items[id]. The index holds no
// summary state — slab order, never table order, is what summaries
// iterate and serialize — so the zero value is an empty index and a
// rebuilt one is equivalent.
type ItemIndex struct {
	ids   []int32 // slab id + 1; 0 marks an empty slot
	shift uint    // 64 − log2(len(ids))
	n     int
}

// indexSeed perturbs the home slot per process, as the builtin map's
// seed did: keys arrive from the network, and a fixed hash would let a
// sender craft one long probe chain.
var indexSeed = rand.Uint64()

func (x *ItemIndex) home(it stream.Item) uint64 {
	return (uint64(it) ^ indexSeed) * 0x9e3779b97f4a7c15 >> x.shift
}

// SpaceBytes returns the bytes of the table.
func (x *ItemIndex) SpaceBytes() int { return 4 * cap(x.ids) }

// Reset empties the index and sizes it for n items.
func (x *ItemIndex) Reset(n int) {
	if size := 1 << bits.Len(uint(max(2*n, 8)-1)); size > len(x.ids) {
		x.ids = make([]int32, size)
	} else {
		clear(x.ids)
	}
	x.shift, x.n = uint(64-bits.TrailingZeros(uint(len(x.ids)))), 0
}

// Get returns the position of it in items.
func (x *ItemIndex) Get(items []stream.Item, it stream.Item) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := uint64(len(x.ids) - 1)
	for s := x.home(it); x.ids[s] != 0; s = (s + 1) & mask {
		if id := x.ids[s] - 1; items[id] == it {
			return id, true
		}
	}
	return 0, false
}

// Put indexes items[id], which must not be indexed yet.
func (x *ItemIndex) Put(items []stream.Item, id int32) {
	if 2*(x.n+1) > len(x.ids) {
		old := x.ids
		x.ids = nil
		x.Reset(x.n + 1)
		for _, v := range old {
			if v != 0 {
				x.Put(items, v-1)
			}
		}
	}
	mask := uint64(len(x.ids) - 1)
	s := x.home(items[id])
	for x.ids[s] != 0 {
		s = (s + 1) & mask
	}
	x.ids[s] = id + 1
	x.n++
}

// Delete removes items[id], which must be indexed, shifting the rest of
// its probe chain back so every survivor stays reachable from its home
// slot.
func (x *ItemIndex) Delete(items []stream.Item, id int32) {
	mask := uint64(len(x.ids) - 1)
	s := x.home(items[id])
	for x.ids[s] != id+1 {
		s = (s + 1) & mask
	}
	for next := (s + 1) & mask; x.ids[next] != 0; next = (next + 1) & mask {
		// An entry may move back to s only if its home is not in (s, next].
		if (next-x.home(items[x.ids[next]-1]))&mask >= (next-s)&mask {
			x.ids[s] = x.ids[next]
			s = next
		}
	}
	x.ids[s] = 0
	x.n--
}

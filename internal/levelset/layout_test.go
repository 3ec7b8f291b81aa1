package levelset

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// Tests of the repetitions' ordering contract: which layout each call
// leaves, that Merge reads every layout and never writes its argument,
// and that the light part of a fold does not depend on its order.

// layouts builds a state over s in each layout the contract names: fed
// (observed), decoded, and merged (a fold of two halves, one fed and one
// decoded, into a fresh accumulator).
func layouts(t *testing.T, budget int) map[string]func(s stream.Slice) *Estimator {
	return map[string]func(s stream.Slice) *Estimator{
		"fed":     func(s stream.Slice) *Estimator { return lsOf(budget, s) },
		"decoded": func(s stream.Slice) *Estimator { return lsClone(t, lsOf(budget, s)) },
		"merged": func(s stream.Slice) *Estimator {
			acc := lsOf(budget, nil)
			for _, part := range []*Estimator{lsOf(budget, s[:len(s)/2]), lsClone(t, lsOf(budget, s[len(s)/2:]))} {
				if err := acc.Merge(part); err != nil {
					t.Fatal(err)
				}
			}
			return acc
		},
	}
}

// checkLayout asserts the contract's invariants on every repetition of e:
// a fed one's index finds each slab entry at its own position, an unfed
// one's slab is in strictly increasing item order, and either tracks only
// items at level ≥ T, within the budget unless T has reached maxLevel.
func checkLayout(t *testing.T, e *Estimator) {
	t.Helper()
	for ri, rs := range e.reps {
		if n := len(rs.items); len(rs.counts) != n || len(rs.levels) != n {
			t.Fatalf("rep %d: %d items, %d counts, %d levels", ri, n, len(rs.counts), len(rs.levels))
		}
		if len(rs.items) > rs.budget && rs.T < maxLevel {
			t.Fatalf("rep %d: %d items over the budget of %d at T = %d", ri, len(rs.items), rs.budget, rs.T)
		}
		for id, it := range rs.items {
			if int(rs.levels[id]) < rs.T {
				t.Fatalf("rep %d: slab[%d] = %d at level %d below T = %d", ri, id, it, rs.levels[id], rs.T)
			}
			if rs.fed {
				if got, ok := rs.index.Get(rs.items, it); !ok || int(got) != id {
					t.Fatalf("rep %d (fed): slab[%d] = %d, index says %d, %v", ri, id, it, got, ok)
				}
			} else if id > 0 && rs.items[id-1] >= it {
				t.Fatalf("rep %d (unfed): slab[%d] = %d after %d", ri, id, it, rs.items[id-1])
			}
		}
	}
}

// TestFold16MixedLayoutsMatchesReference folds 16 arguments of randomly
// mixed layouts into receivers of each layout and compares the final
// bytes with the reference fold. Every argument's bytes must be what its
// twin, built the same way and never merged from, encodes to — Merge
// never writes its argument, whether it reads it in place or sorts it
// into the receiver's scratch — and every state must keep its layout's
// invariants. The fed receiver takes a fed argument first, the shape in
// which the two sorts share the receiver's scratch.
func TestFold16MixedLayoutsMatchesReference(t *testing.T) {
	const budget = 256
	mk := layouts(t, budget)
	names := []string{"fed", "decoded", "merged"}
	r := rng.New(5)
	for _, recv := range []string{"fed", "decoded"} {
		t.Run(recv, func(t *testing.T) {
			acc := mk[recv](zipfStream(4000, 1<<14, 1.1, 40))
			want := lsClone(t, acc)
			for i := 0; i < 16; i++ {
				kind := names[r.Uint64n(3)]
				if i == 0 {
					kind = "fed"
				}
				s := zipfStream(1000+int(r.Uint64n(3000)), 1<<14, 1.1, uint64(50+i))
				arg, twin := mk[kind](s), mk[kind](s)
				refMerge(t, want, twin)
				if err := acc.Merge(arg); err != nil {
					t.Fatal(err)
				}
				checkLayout(t, acc)
				checkLayout(t, arg)
				for ri, rs := range arg.reps {
					if rs.fed != twin.reps[ri].fed {
						t.Fatalf("merge %d: Merge changed its %s argument's layout", i, kind)
					}
				}
				if !bytes.Equal(lsBytes(t, arg), lsBytes(t, twin)) {
					t.Fatalf("merge %d: Merge wrote its %s argument", i, kind)
				}
			}
			if !bytes.Equal(lsBytes(t, acc), lsBytes(t, want)) {
				t.Fatalf("fold differs from the reference: T %v vs %v", acc.ThresholdLevels(), want.ThresholdLevels())
			}
		})
	}
}

// TestSelfMergeEveryLayout merges a state into itself: the receiver is
// laid out first and then read as its own argument, in place.
func TestSelfMergeEveryLayout(t *testing.T) {
	const budget = 256
	for name, mk := range layouts(t, budget) {
		t.Run(name, func(t *testing.T) {
			s := zipfStream(30000, 5000, 1.1, 12)
			a, want := mk(s), mk(s)
			refMerge(t, want, mk(s))
			if err := a.Merge(a); err != nil {
				t.Fatal(err)
			}
			checkLayout(t, a)
			if !bytes.Equal(lsBytes(t, a), lsBytes(t, want)) {
				t.Fatal("self-merge differs from the reference")
			}
		})
	}
}

// poison points an unfed repetition's index at the wrong positions, so
// that any probe of it — which the contract rules out until an update
// reindexes — either misses or lands on another item.
func poison(rs *repState) {
	rev := slices.Clone(rs.items)
	slices.Reverse(rev)
	rs.index.Reset(len(rev))
	for id := range rev {
		rs.index.Put(rev, int32(id))
	}
}

// TestUnfedRepsAreNeverProbed is kernel_diff_test's index invariant turned
// around: a decoded or merged repetition is item-ordered, and no path
// probes the index it lacks. With that index poisoned, Sum, Encode and
// Merge on either side agree with an untouched twin, and an update, which
// indexes the slab first, matches the twin's.
func TestUnfedRepsAreNeverProbed(t *testing.T) {
	const budget = 128
	mk := layouts(t, budget)
	s, more := zipfStream(20000, 4000, 1.1, 3), zipfStream(5000, 4000, 1.1, 4)
	for _, name := range []string{"decoded", "merged"} {
		t.Run(name, func(t *testing.T) {
			e, twin := mk[name](s), mk[name](s)
			checkLayout(t, e)
			for _, rs := range e.reps {
				if rs.fed {
					t.Fatal("an unfed layout reports fed")
				}
				poison(rs)
			}
			if e.Sum(binom(2)) != twin.Sum(binom(2)) {
				t.Fatal("Sum differs on a poisoned index")
			}
			if !bytes.Equal(lsBytes(t, e), lsBytes(t, twin)) {
				t.Fatal("Encode differs on a poisoned index")
			}
			other := lsOf(budget, more)
			a, b := lsOf(budget, more), lsOf(budget, more)
			if err := a.Merge(e); err != nil {
				t.Fatal(err)
			}
			if err := b.Merge(twin); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lsBytes(t, a), lsBytes(t, b)) {
				t.Fatal("Merge of a poisoned argument differs")
			}
			ec, tc := mk[name](s), mk[name](s)
			for _, rs := range ec.reps {
				poison(rs)
			}
			if err := ec.Merge(other); err != nil {
				t.Fatal(err)
			}
			if err := tc.Merge(other); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lsBytes(t, ec), lsBytes(t, tc)) {
				t.Fatal("Merge into a poisoned receiver differs")
			}
			e.UpdateBatch(more)
			twin.UpdateBatch(more)
			checkLayout(t, e)
			if !bytes.Equal(lsBytes(t, e), lsBytes(t, twin)) {
				t.Fatal("an update after a poisoned index differs")
			}
		})
	}
}

// repBytes is the light part of e's payload: every repetition's hash,
// threshold and run.
func repBytes(e *Estimator) []byte {
	var w wire.Writer
	var buf [2][]int32
	for _, rs := range e.reps {
		rs.encode(&w, &buf)
	}
	return w.Bytes()
}

// TestRepFoldIsOrderIndependent pins what makes a grouped fold of the
// light part possible: a fold of repetitions tracks, at threshold
// min{t ≥ maxᵢ Tᵢ : |⋃ᵢ items at level ≥ t| ≤ budget} (capped at
// maxLevel), exactly the items of that union with their counts summed —
// a function of the set of states alone. So every fold order and
// grouping gives byte-identical repetitions; the heavy part's merge adds
// floors and truncates, and is not compared.
func TestRepFoldIsOrderIndependent(t *testing.T) {
	const budget, n = 300, 16
	states := make([]*Estimator, n)
	for i := range states {
		states[i] = lsOf(budget, zipfStream(500+300*i, 1<<13, 1.1, uint64(70+i)))
		if i%2 == 1 {
			states[i] = lsClone(t, states[i])
		}
	}
	fold := func(order []int) *Estimator {
		acc := lsOf(budget, nil)
		for _, i := range order {
			if err := acc.Merge(states[i]); err != nil {
				t.Fatal(err)
			}
		}
		return acc
	}

	// The closed form, from the states' slabs alone.
	type entry struct {
		level uint8
		count uint64
	}
	want := lsOf(budget, nil)
	for ri, rs := range want.reps {
		union := map[stream.Item]entry{}
		T := 0
		for _, st := range states {
			T = max(T, st.reps[ri].T)
		}
		for _, st := range states {
			o := st.reps[ri]
			for id, it := range o.items {
				e := union[it]
				union[it] = entry{o.levels[id], e.count + o.counts[id]}
			}
		}
		for ; T < maxLevel; T++ {
			size := 0
			for _, e := range union {
				if int(e.level) >= T {
					size++
				}
			}
			if size <= budget {
				break
			}
		}
		rs.T = T
		for _, it := range slices.Sorted(func(yield func(stream.Item) bool) {
			for it, e := range union {
				if int(e.level) >= T && !yield(it) {
					return
				}
			}
		}) {
			rs.push(it, union[it].count, union[it].level)
		}
	}
	wantBytes := repBytes(want)

	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	reversed := slices.Clone(identity)
	slices.Reverse(reversed)
	orders := map[string][]int{"reversed": reversed}
	for k := 0; k < n; k++ {
		orders[fmt.Sprintf("rotation %d", k)] = append(slices.Clone(identity[k:]), identity[:k]...)
	}
	r := rng.New(9)
	for k := 0; k < 8; k++ {
		p := slices.Clone(identity)
		for i := len(p) - 1; i > 0; i-- {
			j := int(r.Uint64n(uint64(i + 1)))
			p[i], p[j] = p[j], p[i]
		}
		orders[fmt.Sprintf("shuffle %d", k)] = p
	}
	for name, order := range orders {
		if got := repBytes(fold(order)); !bytes.Equal(got, wantBytes) {
			t.Fatalf("%s: the folded repetitions differ from the closed form", name)
		}
	}

	// A balanced tree: pairs, then pairs of pairs, each level folding
	// merged states.
	level := make([]*Estimator, n)
	for i := range level {
		level[i] = fold([]int{i})
	}
	for len(level) > 1 {
		next := make([]*Estimator, len(level)/2)
		for i := range next {
			next[i] = level[2*i]
			if err := next[i].Merge(level[2*i+1]); err != nil {
				t.Fatal(err)
			}
		}
		level = next
	}
	if !bytes.Equal(repBytes(level[0]), wantBytes) {
		t.Fatal("tree grouping: the folded repetitions differ from the closed form")
	}
}

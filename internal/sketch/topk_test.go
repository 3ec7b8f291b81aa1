package sketch

import (
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
)

func TestTopKBasic(t *testing.T) {
	tk := NewTopK(3)
	tk.Update(1, 10)
	tk.Update(2, 20)
	tk.Update(3, 5)
	tk.Update(4, 30) // evicts 3
	items := tk.Items()
	if len(items) != 3 {
		t.Fatalf("len = %d", len(items))
	}
	if items[0].Item != 4 || items[1].Item != 2 || items[2].Item != 1 {
		t.Fatalf("order wrong: %+v", items)
	}
	if _, ok := tk.h.find(3); ok {
		t.Fatal("evicted item still tracked")
	}
	if min := tk.h.counts[tk.h.heap[0]]; min != 10 {
		t.Fatalf("heap minimum = %v", min)
	}
}

func TestTopKUpdateExisting(t *testing.T) {
	tk := NewTopK(2)
	tk.Update(1, 10)
	tk.Update(2, 20)
	tk.Update(1, 50) // revise upward
	items := tk.Items()
	if items[0].Item != 1 || items[0].Count != 50 {
		t.Fatalf("revision lost: %+v", items)
	}
	tk.Update(1, 5) // revise downward below 2's count
	if tk.Items()[0].Item != 2 {
		t.Fatalf("downward revision not applied: %+v", tk.Items())
	}
}

func TestTopKLowCountIgnoredWhenFull(t *testing.T) {
	tk := NewTopK(2)
	tk.Update(1, 100)
	tk.Update(2, 200)
	tk.Update(3, 50)
	if _, ok := tk.h.find(3); ok {
		t.Fatal("low-count item admitted")
	}
	if n := len(tk.Items()); n != 2 {
		t.Fatalf("%d tracked", n)
	}
}

func TestTopKHeapInvariantUnderChurn(t *testing.T) {
	tk := NewTopK(50)
	r := rng.New(9)
	truth := map[stream.Item]float64{}
	for i := 0; i < 20000; i++ {
		it := stream.Item(r.Intn(200) + 1)
		truth[it] += float64(r.Intn(10) + 1)
		tk.Update(it, truth[it])
	}
	// The tracked minimum must be ≥ the 50th-largest truth value among
	// tracked items, and every tracked count must be current.
	for _, e := range tk.Items() {
		if truth[e.Item] != e.Count {
			t.Fatalf("stale count for %d: %v vs %v", e.Item, e.Count, truth[e.Item])
		}
	}
	if n := len(tk.Items()); n != 50 {
		t.Fatalf("%d tracked", n)
	}
}

func TestTopKEmpty(t *testing.T) {
	tk := NewTopK(4)
	if len(tk.h.heap) != 0 || len(tk.Items()) != 0 {
		t.Fatal("empty tracker not empty")
	}
}

func TestTopKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTopK(0) did not panic")
		}
	}()
	NewTopK(0)
}

// Package stream defines the data model of the library — streams of items
// over the universe [m] — together with exact reference computations of
// every statistic the paper studies (frequency moments, distinct count,
// entropy, collisions, heavy hitters).
//
// Terminology follows the paper: the original stream is P = <a_1 … a_n>
// with a_i ∈ {1, …, m}; the sampled stream L contains each a_i
// independently with probability p. Exact statistics computed here are the
// ground truth every estimator is judged against.
package stream

import "fmt"

// Item is a stream element: an identifier in the universe {1, …, m}.
// The zero value is reserved (identifiers are 1-based, as in the paper),
// which lets maps and codecs use 0 as a sentinel.
type Item uint64

// WItem is one element of a weighted stream: a key in the universe
// {1, …, m} carrying a positive weight (bytes per packet, dollars per
// event). A weight of 1 on every item recovers the unweighted model
// exactly, which is the compatibility contract every weighted code path
// in the library preserves.
type WItem struct {
	Key    Item
	Weight float64
}

// WSlice is an in-memory weighted stream backed by a slice.
type WSlice []WItem

// Len returns the number of weighted items.
func (s WSlice) Len() int { return len(s) }

// TotalWeight returns the sum of the weights — the weighted stream's
// analogue of the length n.
func (s WSlice) TotalWeight() float64 {
	var total float64
	for _, it := range s {
		total += it.Weight
	}
	return total
}

// Keys projects the weighted stream onto its key sequence, dropping the
// weights.
func (s WSlice) Keys() Slice {
	out := make(Slice, len(s))
	for i, it := range s {
		out[i] = it.Key
	}
	return out
}

// Stream is a finite sequence of items that can be replayed from the
// start. Replayability is what lets the experiment harness compute exact
// ground truth on P and then feed the same P through a sampler.
type Stream interface {
	// Len returns the number of items (the paper's n).
	Len() int
	// ForEach calls fn on every item in order. It stops early and
	// returns the callback's error if fn returns non-nil.
	ForEach(fn func(Item) error) error
}

// Slice is an in-memory Stream backed by a slice.
type Slice []Item

// Len returns the number of items.
func (s Slice) Len() int { return len(s) }

// ForEach calls fn on each item in order.
func (s Slice) ForEach(fn func(Item) error) error {
	for _, it := range s {
		if err := fn(it); err != nil {
			return err
		}
	}
	return nil
}

// Func adapts a generator function into a Stream. The generator is invoked
// once per ForEach call with an emit callback; n is the declared length.
// It is how workload generators expose unbounded-size streams without
// materializing them.
type Func struct {
	N   int
	Gen func(emit func(Item) error) error
}

// Len returns the declared stream length.
func (f Func) Len() int { return f.N }

// ForEach runs the generator, forwarding each emitted item to fn.
func (f Func) ForEach(fn func(Item) error) error {
	return f.Gen(fn)
}

// Collect materializes a stream into a Slice.
func Collect(s Stream) Slice {
	out := make(Slice, 0, s.Len())
	_ = s.ForEach(func(it Item) error {
		out = append(out, it)
		return nil
	})
	return out
}

// Validate checks that every item of s lies in {1, …, m}; it returns a
// descriptive error for the first violation.
func Validate(s Stream, m uint64) error {
	idx := 0
	err := s.ForEach(func(it Item) error {
		if it == 0 || uint64(it) > m {
			return fmt.Errorf("stream: item %d at position %d outside universe [1,%d]", it, idx, m)
		}
		idx++
		return nil
	})
	return err
}

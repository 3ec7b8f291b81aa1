package sketch

import (
	"sort"

	"substream/internal/rng"
	"substream/internal/stream"
)

// CountSketch is the Charikar–Chen–Farach-Colton sketch. Point queries
// have additive error ≈ √(F₂/width) per row, driven to failure
// probability δ by taking the median of O(log 1/δ) rows. Unlike CountMin
// it is unbiased, can underestimate, and its per-row second moment also
// yields an F₂ estimate — the property Theorem 7 and the Rusu–Dobra
// baseline rely on.
type CountSketch struct {
	width   int
	depth   int
	table   []int64
	buckets []rng.Hash2 // pairwise-independent bucket choice, flat rows
	signs   []rng.Hash4 // 4-wise-independent signs, flat rows
	rr      rng.Range   // divide-free bucket reduction (fastrange)
	n       uint64
}

// NewCountSketch builds a sketch with the given width and depth.
func NewCountSketch(width, depth int, r *rng.Xoshiro256) *CountSketch {
	if width < 1 || depth < 1 {
		panic("sketch: CountSketch width and depth must be >= 1")
	}
	cs := &CountSketch{
		width:   width,
		depth:   depth,
		table:   make([]int64, width*depth),
		buckets: make([]rng.Hash2, depth),
		signs:   make([]rng.Hash4, depth),
		rr:      rng.NewRange(uint64(width)),
	}
	for i := 0; i < depth; i++ {
		cs.buckets[i] = rng.NewHash2(r)
		cs.signs[i] = rng.NewHash4(r)
	}
	return cs
}

// Add records count occurrences of item (count may model weighted
// updates; negative counts implement deletions in the turnstile model).
func (cs *CountSketch) Add(it stream.Item, count int64) {
	x := rng.Mod61(uint64(it))
	for row := 0; row < cs.depth; row++ {
		col := cs.rr.Bucket(cs.buckets[row].Eval(x))
		sign := int64(cs.signs[row].Eval(x)&1)*2 - 1
		cs.table[uint64(row*cs.width)+col] += sign * count
	}
	if count > 0 {
		cs.n += uint64(count)
	}
}

// Observe records a single occurrence of item.
func (cs *CountSketch) Observe(it stream.Item) { cs.Add(it, 1) }

// Estimate returns the median-of-rows point estimate of item's count.
func (cs *CountSketch) Estimate(it stream.Item) int64 {
	var buf [16]int64
	ests := buf[:0]
	if cs.depth > len(buf) {
		ests = make([]int64, 0, cs.depth)
	}
	x := rng.Mod61(uint64(it))
	for row := 0; row < cs.depth; row++ {
		col := cs.rr.Bucket(cs.buckets[row].Eval(x))
		sign := int64(cs.signs[row].Eval(x)&1)*2 - 1
		ests = append(ests, sign*cs.table[uint64(row*cs.width)+col])
	}
	return medianInt64(ests)
}

// ObserveEstimate records one occurrence of item and returns its point
// estimate, exactly as Observe followed by Estimate would — a row's cell
// is touched by no other row — with one bucket and one sign evaluation
// per row.
func (cs *CountSketch) ObserveEstimate(it stream.Item) int64 {
	var buf [16]int64
	ests := buf[:0]
	if cs.depth > len(buf) {
		ests = make([]int64, 0, cs.depth)
	}
	x := rng.Mod61(uint64(it))
	for row := 0; row < cs.depth; row++ {
		cell := &cs.table[uint64(row*cs.width)+cs.rr.Bucket(cs.buckets[row].Eval(x))]
		sign := int64(cs.signs[row].Eval(x)&1)*2 - 1
		*cell += sign
		ests = append(ests, sign**cell)
	}
	cs.n++
	return medianInt64(ests)
}

// medianInt64 sorts vals in place (insertion sort: the slice is one
// sketch depth long and usually stack-backed) and returns the median.
func medianInt64(vals []int64) int64 {
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// F2Estimate returns the median over rows of the row's sum of squared
// cells — an estimate of F₂ of the observed stream with relative error
// O(1/√width). This is the classic AMS estimate computed from the
// CountSketch table ("fast AMS").
func (cs *CountSketch) F2Estimate() float64 {
	sums := make([]float64, cs.depth)
	for row := 0; row < cs.depth; row++ {
		var s float64
		for col := 0; col < cs.width; col++ {
			v := float64(cs.table[row*cs.width+col])
			s += v * v
		}
		sums[row] = s
	}
	sort.Float64s(sums)
	mid := cs.depth / 2
	if cs.depth%2 == 1 {
		return sums[mid]
	}
	return (sums[mid-1] + sums[mid]) / 2
}

// Width returns the number of columns per row.
func (cs *CountSketch) Width() int { return cs.width }

// SpaceBytes returns the approximate memory footprint.
func (cs *CountSketch) SpaceBytes() int {
	return 8*len(cs.table) + 48*cs.depth + 24
}

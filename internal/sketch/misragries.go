package sketch

import "substream/internal/stream"

// MisraGries is the deterministic frequent-items summary of Misra and
// Gries [33]: with k counters, every item's reported count underestimates
// its true count by at most N/(k+1), so all items with f_i > N/(k+1) are
// guaranteed to be present. The paper notes it as the insert-only
// alternative to CountMin for Theorem 6.
type MisraGries struct {
	k        int
	counters map[stream.Item]uint64
	n        uint64
}

// NewMisraGries returns a summary with k counters. It panics if k < 1.
func NewMisraGries(k int) *MisraGries {
	if k < 1 {
		panic("sketch: MisraGries requires k >= 1")
	}
	return &MisraGries{k: k, counters: make(map[stream.Item]uint64, k+1)}
}

// Observe feeds one item.
func (mg *MisraGries) Observe(it stream.Item) {
	mg.n++
	if _, ok := mg.counters[it]; ok {
		mg.counters[it]++
		return
	}
	if len(mg.counters) < mg.k {
		mg.counters[it] = 1
		return
	}
	// Decrement-all step; delete counters that reach zero.
	for key, c := range mg.counters {
		if c == 1 {
			delete(mg.counters, key)
		} else {
			mg.counters[key] = c - 1
		}
	}
}

// Estimate returns the (under-)estimate of item's count: true count minus
// at most N/(k+1).
func (mg *MisraGries) Estimate(it stream.Item) uint64 {
	return mg.counters[it]
}

// ErrorBound returns the maximum undercount N/(k+1).
func (mg *MisraGries) ErrorBound() float64 {
	return float64(mg.n) / float64(mg.k+1)
}

// SpaceBytes returns the approximate memory footprint.
func (mg *MisraGries) SpaceBytes() int { return 32 * mg.k }

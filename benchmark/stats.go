package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of ascending s by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median returns the median of v (any order).
func median(v []float64) float64 { return percentile(sorted(v), 0.5) }

// supportedTail returns the highest percentile not above want that still
// has at least ten samples beyond it in a sample of n — the rule for
// which tail percentile a timing may be reported at. With fewer than 20
// samples not even the median qualifies and it returns 0.5 regardless.
func supportedTail(n int, want float64) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Max(0.5, math.Min(want, 1-10/float64(n)))
}

// tail returns the value of ascending s at supportedTail(len(s), want),
// and that percentile.
func tail(s []float64, want float64) (value, at float64) {
	at = supportedTail(len(s), want)
	return percentile(s, at), at
}

// quartiles returns Q1, Q2, Q3 of v exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method: the
// i-th cut sits at position i·(n+1)/4 of the sorted sample, clamped).
// It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of v as a share of its median —
// the steadiness figure a metric's bound is judged against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(q2)
}

// sliceMedian returns the median per-second rate of equal time slices:
// counts[i] events fell in slice i of sliceSec seconds. One slice hit by
// a noisy neighbour moves the mean but not this.
func sliceMedian(counts []float64, sliceSec float64) float64 {
	rates := make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = c / sliceSec
	}
	return median(rates)
}

// sinceMs is the wall time elapsed since t0, in milliseconds.
func sinceMs(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// msOf merges nanosecond sample lists into ascending milliseconds.
func msOf(lists ...[]int64) []float64 {
	var out []float64
	for _, ns := range lists {
		for _, v := range ns {
			out = append(out, float64(v)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// relErr is |got − want| / |want|.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// The paired mode judges a change against its parent measured on the same
// machine, in alternating runs: parent, change, parent, change, …. Box
// drift between minutes then moves both sides of a pair alike, which a
// comparison against one file recorded elsewhere cannot tell from a real
// slip. Each case gets one verdict:
//
//   - ns/op: the median over pairs of change/parent, with a sign count (in
//     how many pairs the change read slower). The case is slower when the
//     median ratio exceeds 1 + threshold and the sign count is one a fair
//     coin reaches with probability at most 5 % (5 of 5 pairs, 6 of 6, 7
//     of 8, 9 of 10); faster, symmetrically; flat otherwise. A bare
//     majority is not enough: untouched cases read slower in 4 of 6 pairs
//     by chance on a shared 2-vCPU box.
//   - allocs/op and B/op: these do not drift with the box, so they are
//     compared exactly: the case allocates more when the change's fewest
//     reading exceeds the parent's most. A result a run amortises
//     differently (one allocation in a setup slice, a pool refill) moves
//     within each side's own spread and is not a rise.
//
// A slower case, or one that allocates more, fails the verdict.

// pairedVerdict is one case's verdict over its pairs.
type pairedVerdict struct {
	Name        string
	Pairs       int
	ParentNs    float64 // median parent ns/op
	Ratio       float64 // median of change/parent ns/op over pairs
	Slower      int     // pairs in which the change read slower
	Allocs      [2]float64
	Bytes       [2]float64 // parent's most and change's fewest
	MoreAllocs  bool
	MoreBytes   bool
	TimeVerdict string // "faster", "flat" or "slower"
}

func (v pairedVerdict) failed() bool {
	return v.TimeVerdict == "slower" || v.MoreAllocs || v.MoreBytes
}

// runPaired reads alternating parent/change files and writes the verdict
// table, reporting whether any case failed.
func runPaired(w io.Writer, paths []string, match *regexp.Regexp, threshold float64) (bool, error) {
	if len(paths)%2 != 0 {
		return false, fmt.Errorf("-paired takes parent/change files in pairs, got %d files", len(paths))
	}
	var sides [2]map[string][]benchResult
	for i := range sides {
		sides[i] = make(map[string][]benchResult)
	}
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return false, err
		}
		err = scan(f, func(name string, res benchResult) {
			if match.MatchString(name) {
				sides[i%2][name] = append(sides[i%2][name], res)
			}
		})
		f.Close()
		if err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	verdicts := paired(sides[0], sides[1], threshold)
	return renderPaired(w, verdicts, threshold), nil
}

// paired pairs the i-th parent result of each case with its i-th change
// result and judges every case present on both sides, in name order.
func paired(parent, change map[string][]benchResult, threshold float64) []pairedVerdict {
	var out []pairedVerdict
	for name, ps := range parent {
		cs := change[name]
		n := min(len(ps), len(cs))
		if n == 0 || slices.ContainsFunc(ps[:n], func(r benchResult) bool { return r.NsPerOp <= 0 }) {
			continue
		}
		v := pairedVerdict{Name: name, Pairs: n}
		ratios := make([]float64, n)
		ns := make([]float64, n)
		for i := range n {
			ratios[i] = cs[i].NsPerOp / ps[i].NsPerOp
			ns[i] = ps[i].NsPerOp
			if ratios[i] > 1 {
				v.Slower++
			}
		}
		v.Ratio, v.ParentNs = median(ratios), median(ns)
		switch {
		case v.Ratio > 1+threshold/100 && signTail(v.Slower, n) <= 0.05:
			v.TimeVerdict = "slower"
		case v.Ratio < 1-threshold/100 && signTail(n-v.Slower, n) <= 0.05:
			v.TimeVerdict = "faster"
		default:
			v.TimeVerdict = "flat"
		}
		v.Allocs = extremes(ps[:n], cs[:n], func(r benchResult) float64 { return r.AllocsPerOp })
		v.Bytes = extremes(ps[:n], cs[:n], func(r benchResult) float64 { return r.BytesPerOp })
		v.MoreAllocs, v.MoreBytes = v.Allocs[1] > v.Allocs[0], v.Bytes[1] > v.Bytes[0]
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// extremes returns the most any parent run read of f and the fewest any
// change run read.
func extremes(ps, cs []benchResult, f func(benchResult) float64) [2]float64 {
	most, fewest := f(ps[0]), f(cs[0])
	for i := range ps {
		most, fewest = max(most, f(ps[i])), min(fewest, f(cs[i]))
	}
	return [2]float64{most, fewest}
}

// signTail is the probability that a fair coin shows heads at least k
// times in n tosses: the one-sided sign test's p-value.
func signTail(k, n int) float64 {
	p, c := 0.0, 1.0 // c is C(n, i)
	for i := 0; i <= n; i++ {
		if i >= k {
			p += c
		}
		c = c * float64(n-i) / float64(i+1)
	}
	return p / math.Pow(2, float64(n))
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// renderPaired writes the verdict table and reports whether a case failed.
func renderPaired(w io.Writer, verdicts []pairedVerdict, threshold float64) bool {
	fmt.Fprintf(w, "### Paired verdict: change against parent, alternated (ns/op band ±%g%%; allocs/op and B/op exact)\n\n", threshold)
	if len(verdicts) == 0 {
		fmt.Fprintf(w, "No benchmarks common to both sides.\n")
		return false
	}
	fmt.Fprintf(w, "| benchmark | pairs | parent ns/op | Δ ns/op (median ratio) | slower in | allocs/op (parent most → change fewest) | B/op (same) | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
	failed := false
	for _, v := range verdicts {
		verdict := []string{v.TimeVerdict}
		if v.MoreAllocs {
			verdict = append(verdict, fmt.Sprintf("+%.0f allocs/op", v.Allocs[1]-v.Allocs[0]))
		}
		if v.MoreBytes {
			verdict = append(verdict, fmt.Sprintf("+%.0f B/op", v.Bytes[1]-v.Bytes[0]))
		}
		if v.failed() {
			failed = true
			verdict = append(verdict, "**FAIL**")
		}
		fmt.Fprintf(w, "| %s | %d | %.4g | %+.1f%% | %d/%d | %.0f → %.0f | %.0f → %.0f | %s |\n",
			strings.TrimPrefix(v.Name, "Benchmark"), v.Pairs, v.ParentNs, (v.Ratio-1)*100,
			v.Slower, v.Pairs, v.Allocs[0], v.Allocs[1], v.Bytes[0], v.Bytes[1], strings.Join(verdict, ", "))
	}
	return failed
}

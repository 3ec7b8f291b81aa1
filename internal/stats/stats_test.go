package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Variance() != 2.5 {
		t.Fatalf("Variance = %v", s.Variance())
	}
	if math.Abs(s.StdDev()-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("StdDev = %v", s.StdDev())
	}
	if s.Median() != 3 {
		t.Fatalf("Median = %v", s.Median())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.Median() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary not all-zero")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(7)
	if s.Mean() != 7 || s.Variance() != 0 || s.Median() != 7 {
		t.Fatal("single-value summary wrong")
	}
}

// TestQuantileCacheInvalidation is the regression test for the sorted
// cache: quantiles after an interleaved Add must reflect the new value,
// exactly as if every call re-sorted from scratch, and the insertion
// order of the raw values must survive caching.
func TestQuantileCacheInvalidation(t *testing.T) {
	var s Summary
	for _, v := range []float64{30, 10, 20} {
		s.Add(v)
	}
	if got := s.Quantile(0.5); got != 20 {
		t.Fatalf("median of {30,10,20} = %v, want 20", got)
	}
	// Repeated queries hit the cache and must agree.
	if got := s.Quantile(0.5); got != 20 {
		t.Fatalf("cached median = %v, want 20", got)
	}
	if got := s.Quantile(1); got != 30 {
		t.Fatalf("cached max quantile = %v, want 30", got)
	}

	// Add must invalidate: a new maximum shifts every upper quantile.
	s.Add(40)
	if got := s.Quantile(1); got != 40 {
		t.Fatalf("q=1 after Add = %v, want 40 (stale cache?)", got)
	}
	if got := s.Quantile(0.5); got != 25 {
		t.Fatalf("median after Add = %v, want 25", got)
	}
	// And the raw sample must keep its insertion order: sorting works on
	// the cached copy, never the values themselves.
	if s.values[0] != 30 || s.values[3] != 40 {
		t.Fatalf("Add/Quantile reordered the raw sample: %v", s.values)
	}

	// Mixed Add/quantile churn matches a cache-free reference.
	var cached, reference Summary
	ref := func(q float64) float64 {
		// Reference path: force a fresh sort by rebuilding the summary.
		var fresh Summary
		for _, v := range reference.values {
			fresh.Add(v)
		}
		return fresh.Quantile(q)
	}
	for i := 0; i < 200; i++ {
		v := float64((i * 7919) % 101)
		cached.Add(v)
		reference.Add(v)
		if i%3 == 0 {
			for _, q := range []float64{0.5, 0.9, 0.99} {
				if got, want := cached.Quantile(q), ref(q); got != want {
					t.Fatalf("step %d q=%v: cached %v, reference %v", i, q, got, want)
				}
			}
		}
	}
}

func TestQuantileInterpolation(t *testing.T) {
	var s Summary
	for _, v := range []float64{10, 20, 30, 40} {
		s.Add(v)
	}
	if got := s.Quantile(0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 40 {
		t.Fatalf("q1 = %v", got)
	}
	if got := s.Quantile(0.5); got != 25 {
		t.Fatalf("q.5 = %v", got)
	}
	// Out-of-range q clamps.
	if got := s.Quantile(-1); got != 10 {
		t.Fatalf("q-1 = %v", got)
	}
	if got := s.Quantile(2); got != 40 {
		t.Fatalf("q2 = %v", got)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		var s Summary
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		qa := float64(a%101) / 100
		qb := float64(b%101) / 100
		if qa > qb {
			qa, qb = qb, qa
		}
		return s.Quantile(qa) <= s.Quantile(qb)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelErr = %v", got)
	}
	if got := RelErr(90, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelErr = %v", got)
	}
	if RelErr(0, 0) != 0 {
		t.Fatal("RelErr(0,0) != 0")
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Fatal("RelErr(1,0) not +Inf")
	}
}

func TestMultErr(t *testing.T) {
	if got := MultErr(200, 100); got != 2 {
		t.Fatalf("MultErr = %v", got)
	}
	if got := MultErr(50, 100); got != 2 {
		t.Fatalf("MultErr = %v", got)
	}
	if got := MultErr(100, 100); got != 1 {
		t.Fatalf("MultErr = %v", got)
	}
	if !math.IsInf(MultErr(0, 100), 1) {
		t.Fatal("MultErr(0, ·) not +Inf")
	}
	if !math.IsInf(MultErr(100, 0), 1) {
		t.Fatal("MultErr(·, 0) not +Inf")
	}
}

func TestMultErrSymmetryProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := float64(a)+1, float64(b)+1
		return math.Abs(MultErr(x, y)-MultErr(y, x)) < 1e-12 && MultErr(x, y) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPrecisionRecall(t *testing.T) {
	reported := map[uint64]bool{1: true, 2: true, 3: true}
	truth := map[uint64]bool{2: true, 3: true, 4: true}
	p, r := PrecisionRecall(reported, truth)
	if math.Abs(p-2.0/3) > 1e-12 {
		t.Fatalf("precision = %v", p)
	}
	if math.Abs(r-2.0/3) > 1e-12 {
		t.Fatalf("recall = %v", r)
	}
	// Empty conventions.
	p, r = PrecisionRecall(nil, truth)
	if p != 1 || r != 0 {
		t.Fatalf("empty reported: p=%v r=%v", p, r)
	}
	p, r = PrecisionRecall(reported, nil)
	if p != 0 || r != 1 {
		t.Fatalf("empty truth: p=%v r=%v", p, r)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "p", "error", "bound")
	tb.AddRow(0.5, 0.01234, "ok")
	tb.AddRow(0.1, 1234.5678, "ok")
	tb.AddNote("seeds: %d", 5)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "## Demo") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "0.01234") {
		t.Fatalf("missing cell:\n%s", out)
	}
	if !strings.Contains(out, "note: seeds: 5") {
		t.Fatalf("missing note:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header columns aligned: "p" column width fits "0.5".
	if len(lines) < 5 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

func TestTableEmpty(t *testing.T) {
	tb := NewTable("", "a")
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	if strings.Contains(out, "##") {
		t.Fatalf("untitled table rendered a title:\n%s", out)
	}
}

// TestQuantileEdges is the table-driven regression for the documented
// edge contract: q ≤ 0 (including NaN) answers Min, q ≥ 1 answers Max,
// empty summaries answer 0, single-element summaries answer the element
// for every q — and none of the out-of-range inputs may panic.
func TestQuantileEdges(t *testing.T) {
	multi := &Summary{}
	for _, v := range []float64{5, 1, 9, 3, 7} {
		multi.Add(v)
	}
	single := &Summary{}
	single.Add(42)
	empty := &Summary{}

	cases := []struct {
		name string
		s    *Summary
		q    float64
		want float64
	}{
		{"empty q=0.5", empty, 0.5, 0},
		{"empty q=0", empty, 0, 0},
		{"empty q=1", empty, 1, 0},
		{"empty NaN", empty, math.NaN(), 0},
		{"single q=0", single, 0, 42},
		{"single q=0.5", single, 0.5, 42},
		{"single q=1", single, 1, 42},
		{"single below range", single, -3, 42},
		{"single above range", single, 2, 42},
		{"single NaN", single, math.NaN(), 42},
		{"multi q=0 is min", multi, 0, 1},
		{"multi q=1 is max", multi, 1, 9},
		{"multi below range clamps to min", multi, -0.1, 1},
		{"multi above range clamps to max", multi, 1.5, 9},
		{"multi NaN clamps to min", multi, math.NaN(), 1},
		{"multi median", multi, 0.5, 5},
	}
	for _, tc := range cases {
		if got := tc.s.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
	if got, want := multi.Quantile(0), multi.Min(); got != want {
		t.Errorf("Quantile(0) = %v, Min() = %v — documented as equal", got, want)
	}
	if got, want := multi.Quantile(1), multi.Max(); got != want {
		t.Errorf("Quantile(1) = %v, Max() = %v — documented as equal", got, want)
	}
}

package main

import (
	"fmt"
	"io"
	"sort"
)

// agreement is how one end-to-end metric behaved on one workload across
// the run sets of -repeat: the evidence that two runs of the same code
// agree within the metric's bound.
type agreement struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3−Q1)/median, the figure the driver holds to the bound.
	Spread float64 `json:"spread"`
	// Worst is how much worse the worst run set reads than the best, as a
	// share of the best, in the metric's "better" direction.
	Worst float64 `json:"worst_vs_best"`
	Bound float64 `json:"bound"`
	Agree bool    `json:"agree"`
}

// agree summarises one metric's values across run sets.
func agree(def metricDef, values []float64) agreement {
	a := agreement{Values: values, Bound: def.bound}
	a.Q1, a.Median, a.Q3 = quartiles(values)
	a.Spread = spread(values)
	s := sorted(values)
	best, worst := s[0], s[len(s)-1]
	if def.better == "higher" {
		best, worst = worst, best
	}
	a.Worst = relErr(worst, best)
	a.Agree = a.Worst <= def.bound
	return a
}

// agreementOf compares every end-to-end metric × workload across sets.
func agreementOf(sets []map[string]*passResult) map[string]map[string]agreement {
	out := map[string]map[string]agreement{}
	for name := range sets[0] {
		out[name] = map[string]agreement{}
		for _, def := range endToEnd {
			var values []float64
			for _, set := range sets {
				values = append(values, set[name].values[def.name])
			}
			out[name][def.name] = agree(def, values)
		}
	}
	return out
}

func writeAgreement(w io.Writer, rep map[string]map[string]agreement) {
	names := make([]string, 0, len(rep))
	for n := range rep {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%-24s %-26s %12s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "worst", "bound", "agree")
	for _, n := range names {
		for _, def := range endToEnd {
			a := rep[n][def.name]
			fmt.Fprintf(w, "%-24s %-26s %12.5g %12.5g %12.5g %7.1f%% %7.1f%% %5.0f%%  %v\n",
				n, def.name, a.Median, a.Q1, a.Q3, 100*a.Spread, 100*a.Worst, 100*a.Bound, a.Agree)
		}
	}
}

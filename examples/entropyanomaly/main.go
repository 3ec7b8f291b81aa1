// Entropy-based anomaly detection over a sampled stream (§5).
//
// Destination-port entropy is a classic network anomaly signal: normal
// traffic has high, stable entropy; a port scan adds thousands of
// near-singleton ports (entropy spike), a DDoS concentrates traffic on
// one port (entropy crash). The monitor sees only a p-sample of packets,
// and by Theorem 5 the sampled entropy still tracks the original within a
// constant factor while H(f) is large — enough to alarm on CHANGES.
//
// Run: go run ./examples/entropyanomaly
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"substream/internal/core"
	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stream"
	"substream/internal/workload"
)

// window builds one traffic window: baseline Zipf port traffic, with an
// optional anomaly mixed in.
func window(kind string, n int, seed uint64) stream.Slice {
	r := rng.New(seed)
	base := stream.Collect(workload.Zipf(n, 1024, 1.0, r.Uint64()).Stream)
	switch kind {
	case "normal":
		return base
	case "portscan":
		// 30% of packets hit fresh high ports, one packet each.
		out := make(stream.Slice, 0, n)
		next := stream.Item(10000)
		for i, it := range base {
			if i%10 < 3 {
				out = append(out, next)
				next++
			} else {
				out = append(out, it)
			}
		}
		return out
	case "ddos":
		// 70% of packets slam port 80.
		out := make(stream.Slice, 0, n)
		for i, it := range base {
			if i%10 < 7 {
				out = append(out, 80)
			} else {
				out = append(out, it)
			}
		}
		return out
	}
	panic("unknown window kind " + kind)
}

func main() { run(os.Stdout) }

// run prints one row per window to w; the seeds are fixed, so it prints
// the same every time.
func run(w io.Writer) {
	const (
		n = 200000
		p = 0.05
	)
	r := rng.New(99)

	fmt.Fprintf(w, "per-window destination-port entropy, monitor sees p=%.0f%% of packets\n\n", p*100)
	fmt.Fprintf(w, "%-10s %-12s %-12s %-10s %s\n", "window", "H(f) true", "Ĥ sampled", "ratio", "alarm")

	var baseline float64
	for i, kind := range []string{"normal", "normal", "portscan", "normal", "ddos", "normal"} {
		win := window(kind, n, uint64(i+1))
		exact := stream.NewFreq(win).Entropy()

		est := core.NewEntropyEstimator(core.EntropyConfig{P: p}, r.Split())
		_ = sample.NewBernoulli(p).Pipe(win, r.Split(), func(it stream.Item) error {
			est.Observe(it)
			return nil
		})
		h := est.Estimate()

		alarm := ""
		if baseline > 0 {
			change := h / baseline
			switch {
			case change > 1.25:
				alarm = "ENTROPY SPIKE (scan?)"
			case change < 0.75:
				alarm = "ENTROPY CRASH (ddos?)"
			}
		}
		if kind == "normal" {
			// Update the rolling baseline on normal windows only.
			if baseline == 0 {
				baseline = h
			} else {
				baseline = 0.8*baseline + 0.2*h
			}
		}
		label := kind
		if alarm != "" {
			label = strings.ToUpper(kind)
		}
		row := fmt.Sprintf("%-10s %-12.3f %-12.3f %-10.3f %s", label, exact, h, h/exact, alarm)
		fmt.Fprintln(w, strings.TrimRight(row, " "))
	}

	fmt.Fprintln(w, "\nthe sampled estimate tracks true entropy closely (ratio ≈ 1) because")
	fmt.Fprintln(w, "H(f) is far above the Theorem 5 floor; anomalies remain visible at p=5%.")
}

package quantile

import (
	"strconv"
	"strings"

	"substream/internal/estimator"
	"substream/internal/stream"
)

// This file plugs the summary into the internal/estimator registry: the
// quantile package owns the tag range 0x40–0x4f (see
// internal/server/doc.go), and the stream.Item adapters below are what
// let the value-typed CKMS core ride the library's uniform contract.

// Observe feeds one item of the observed stream, treating the item
// identifier as the measured value (a flow size, a latency bucket).
func (e *Estimator) Observe(it stream.Item) { e.Insert(float64(it)) }

// UpdateBatch feeds a batch. Values are appended buffer-chunk by
// buffer-chunk, so the flush points — and therefore the serialized
// state — are bit-identical to per-item Observe for any batch split.
func (e *Estimator) UpdateBatch(items []stream.Item) {
	for len(items) > 0 {
		room := bufferCap - len(e.buf)
		if room > len(items) {
			room = len(items)
		}
		for _, it := range items[:room] {
			e.buf = append(e.buf, float64(it))
		}
		items = items[room:]
		if len(e.buf) == bufferCap {
			e.flush()
		}
	}
}

// SpaceBytes returns the approximate memory footprint: the sample list,
// the insertion buffer, and the target table.
func (e *Estimator) SpaceBytes() int {
	return len(e.samples)*24 + cap(e.buf)*8 + len(e.targets)*16
}

// Estimates returns the observed count and one value per target, keyed
// in the production idiom: φ = 0.99 reports as "p99", 0.999 as "p999".
// Windowed streams surface the same keys under the "window_" prefix
// ("window_p99"), which is what opens latency/size-distribution
// monitoring as a query family.
func (e *Estimator) Estimates() map[string]float64 {
	out := make(map[string]float64, len(e.targets)+1)
	out["n"] = float64(e.N())
	for _, t := range e.targets {
		out[QuantileKey(t.Quantile)] = e.Query(t.Quantile)
	}
	return out
}

// QuantileKey renders a quantile φ as its estimate-map key: the decimal
// digits of φ after "0.", padded to two digits — 0.5 → "p50",
// 0.9 → "p90", 0.99 → "p99", 0.999 → "p999", 0.25 → "p25".
func QuantileKey(phi float64) string {
	digits := strings.TrimPrefix(strconv.FormatFloat(phi, 'f', -1, 64), "0.")
	if len(digits) == 1 {
		digits += "0"
	}
	return "p" + digits
}

// TagQuantile is the summary's wire tag, first of the package's
// 0x40–0x4f range.
const TagQuantile byte = 0x40

func init() {
	estimator.Register(estimator.Kind{
		Tag: TagQuantile, Name: "quantile",
		Doc: "CKMS targeted streaming quantiles of observed values (p50 +/-1%, p90/p99/p999 +/-0.1% rank error)",
		New: func(estimator.Spec) (estimator.Estimator, error) {
			// Targets are fixed rather than Spec-derived: identical targets
			// are this kind's merge-compatibility key, so deriving them from
			// a tunable field would let two agents of one logical stream
			// build unmergeable summaries from configs the server considers
			// compatible.
			return estimator.Adapt(NewTargeted(DefaultTargets())), nil
		},
		Decode: estimator.DecodeTyped(Decode),
	})
}

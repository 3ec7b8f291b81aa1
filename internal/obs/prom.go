package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"strings"

	"substream/internal/quantile"
)

// encoder is one exposition format: walk calls family once per family,
// then sample for each scalar series and histogram for each histogram.
type encoder interface {
	family(f *family)
	sample(name string, labels []Label, v float64)
	histogram(name string, h *Histogram)
}

// walk drives e over every registered family in registration order:
// static series in label order, dynamic series as collect emits them.
func (r *Registry) walk(e encoder) {
	for _, f := range r.families() {
		e.family(f)
		if f.collect != nil {
			f.collect(func(v float64, labels ...Label) { e.sample(f.name, labels, v) })
			continue
		}
		for _, s := range f.snapshotSeries() {
			if s.h != nil {
				e.histogram(f.name, s.h)
			} else {
				e.sample(f.name, s.labels, s.value())
			}
		}
	}
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4): a # HELP and # TYPE line per
// family, then one sample line per series, label values escaped per the
// format's rules. A histogram renders as a summary: one
// {quantile="φ"} sample per target, then _sum and _count. The order is
// walk's, so the output is deterministic — the golden test relies on
// that.
func (r *Registry) WritePrometheus(w io.Writer) error {
	e := promEncoder{bufio.NewWriter(w)}
	r.walk(e)
	return e.w.Flush()
}

type promEncoder struct{ w *bufio.Writer }

func (e promEncoder) family(f *family) {
	e.w.WriteString("# HELP " + f.name + " " + helpEscaper.Replace(f.help) + "\n")
	e.w.WriteString("# TYPE " + f.name + " " + f.kind + "\n")
}

func (e promEncoder) sample(name string, labels []Label, v float64) {
	e.w.WriteString(seriesKey(name, labels) + " " + formatValue(v) + "\n")
}

func (e promEncoder) histogram(name string, h *Histogram) {
	count, sum, qs := h.snapshot()
	for _, q := range qs {
		e.sample(name, []Label{{Key: "quantile", Value: strconv.FormatFloat(q.Quantile, 'g', -1, 64)}}, q.Value)
	}
	e.sample(name+"_sum", nil, sum)
	e.sample(name+"_count", nil, float64(count))
}

// WriteJSON renders the registry as the flat expvar-style JSON panel
// the daemon has always served: {"name": value, ...}, keys sorted.
// Labeled series render as "name{key=\"value\"}" entries, labeled
// counter families (CounterVec) additionally surface their sum under
// the bare name (backward compatibility with consumers of the pre-obs
// panel), and histograms render as one nested object with count, sum,
// and per-target quantiles.
func (r *Registry) WriteJSON(w io.Writer) error {
	e := &jsonEncoder{out: make(map[string]any)}
	r.walk(e)
	// encoding/json sorts map keys, so the panel is deterministic.
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e.out)
}

type jsonEncoder struct {
	out map[string]any
	sum bool // the current family sums its series under its bare name
}

func (e *jsonEncoder) family(f *family) {
	e.sum = f.sumJSON
	if e.sum {
		e.out[f.name] = 0.0
	}
}

func (e *jsonEncoder) sample(name string, labels []Label, v float64) {
	e.out[seriesKey(name, labels)] = v
	if e.sum {
		e.out[name] = e.out[name].(float64) + v
	}
}

func (e *jsonEncoder) histogram(name string, h *Histogram) {
	count, sum, qs := h.snapshot()
	nested := map[string]any{"count": count, "sum": sum}
	for _, q := range qs {
		nested[quantile.QuantileKey(q.Quantile)] = q.Value
	}
	e.out[name] = nested
}

// seriesKey renders one series' name with its labels, the same in both
// formats: the bare name when unlabeled, name{k="v",...} otherwise.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for i, l := range labels {
		if i == 0 {
			sb.WriteByte('{')
		} else {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key + `="` + labelEscaper.Replace(l.Value) + `"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

// The exposition format escapes backslash, double-quote and newline in
// a label value, and backslash and newline in help text (quotes are
// legal there).
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// Package estimator is the single abstraction layer every statistic in
// this repository plugs into. It defines the uniform summary contract
// (Estimator) and a wire-tag registry (Register/Kinds/New/Decode) that
// maps each serialized payload tag to a name, a decoder, and a
// config-driven constructor.
//
// The registry holds the kinds that answer a question about the original
// stream P: the paper's estimators in internal/core (fk, f0, entropy,
// hh1, hh2, all, gee), the CKMS quantiles of internal/quantile, the
// VarOpt reservoir of internal/sample, and the epoch ring of
// internal/window around any of them. Each package registers its kinds
// from an init function, so importing it populates the registry. The
// summaries core's kinds are built from — the sketches of internal/sketch
// and the collision counters of internal/levelset — are components: they
// describe the sampled stream L, ride nested in their parents' payloads
// and are decoded by their parents, never through this package. Every
// consumer — the daemon's stream builder, the collector's decode path,
// the CLIs' -list-estimators — works against this package alone, which is
// what makes a new statistic a single-package change: implement the Typed
// contract, pick a free tag, call Register.
package estimator

import (
	"fmt"

	"substream/internal/stream"
	"substream/internal/wire"
)

// Estimator is the uniform contract of one mergeable stream summary. It
// deliberately matches internal/pipeline's replica expectations: the
// pipeline's batched workers use UpdateBatch, and because Merge takes the
// interface itself, Estimator satisfies pipeline.Mergeable[Estimator] and
// flows through MergeAll unchanged.
type Estimator interface {
	// Observe feeds one element of the observed (sampled) stream.
	Observe(it stream.Item)
	// UpdateBatch feeds a batch of elements — the amortized fast path.
	UpdateBatch(items []stream.Item)
	// Merge folds another estimator of the same kind into the receiver.
	// Both sides must have been built from an identical Spec (same seed);
	// anything else returns an error, never corrupts state.
	Merge(other Estimator) error
	// MarshalBinary serializes the cumulative state in the tagged wire
	// format (see internal/server/doc.go for the format rules).
	MarshalBinary() ([]byte, error)
	// Encode writes that payload to the caller's Writer — how a composite
	// (a window's ring) nests a replica in place. MarshalBinary is
	// wire.Marshal around it.
	Encode(w *wire.Writer)
	// SpaceBytes returns the approximate memory footprint.
	SpaceBytes() int
	// Estimates returns the named scalar estimates this summary answers,
	// e.g. {"f0": …} or {"fk": …, "f2": …, "sampled_length": …}.
	Estimates() map[string]float64
}

// Hitter is one detected heavy hitter with its estimated original-stream
// frequency. internal/core's ReportedHitter is an alias of this type, so
// hitter lists flow between layers without conversion.
type Hitter struct {
	Item stream.Item
	Freq float64
}

// Report is a full named-estimate report: the scalar values plus any
// detected heavy hitters. It is the JSON shape the daemon serves for both
// local and global estimate queries.
type Report struct {
	// Values holds scalar estimates keyed by statistic name.
	Values map[string]float64 `json:"values"`
	// F1Hitters and F2Hitters list detected heavy hitters.
	F1Hitters []Hitter `json:"f1_hitters,omitempty"`
	F2Hitters []Hitter `json:"f2_hitters,omitempty"`
}

// Reporter is an optional extension implemented by estimators whose full
// report carries more than scalar values (heavy-hitter lists).
type Reporter interface {
	EstimatorReport() Report
}

// ReportOf returns the full report of any estimator: its EstimatorReport
// when it implements Reporter, otherwise just its scalar Estimates.
func ReportOf(e Estimator) Report {
	if r, ok := e.(Reporter); ok {
		return r.EstimatorReport()
	}
	return Report{Values: e.Estimates()}
}

// Weighted is an optional extension implemented by estimators that
// consume (key, weight) items natively — today the VarOpt reservoir in
// internal/sample and the window wrapper around it. Estimators without
// it still accept weighted streams through the degenerate projection
// (each weighted item observed once as its bare key); WeightedOf is the
// single probe ingestion layers use to pick the path.
type Weighted interface {
	// ObserveWeighted feeds one weighted element of the observed stream.
	ObserveWeighted(it stream.Item, weight float64)
	// UpdateWeightedBatch feeds a weighted batch — the amortized fast
	// path, required to be state-equivalent to element-wise
	// ObserveWeighted like UpdateBatch is to Observe.
	UpdateWeightedBatch(items []stream.WItem)
}

// WeightedOf returns the weighted-ingest surface of an estimator: the
// estimator itself when it implements Weighted, the concrete value
// behind an adapter when that does, and false otherwise.
func WeightedOf(e Estimator) (Weighted, bool) {
	if w, ok := e.(Weighted); ok {
		return w, true
	}
	w, ok := Unwrap(e).(Weighted)
	return w, ok
}

// Summer is an optional extension implemented by estimators that answer
// subset-sum queries: an unbiased estimate of the total weight of the
// stream elements whose key satisfies pred (Horvitz–Thompson over the
// retained sample, for the VarOpt reservoir).
type Summer interface {
	SubsetSum(pred func(stream.Item) bool) float64
}

// SummerOf returns the subset-sum surface of an estimator, unwrapping
// adapters like WeightedOf does; false when the kind does not answer
// subset sums.
func SummerOf(e Estimator) (Summer, bool) {
	if s, ok := e.(Summer); ok {
		return s, true
	}
	s, ok := Unwrap(e).(Summer)
	return s, ok
}

// Typed is the contract a concrete estimator implements in its own
// package: the Estimator methods with a type-safe Merge. Adapt lifts a
// Typed implementation to the interface, so concrete types never deal in
// interface values and keep their compile-time merge safety.
type Typed[E any] interface {
	Observe(it stream.Item)
	UpdateBatch(items []stream.Item)
	Merge(other E) error
	MarshalBinary() ([]byte, error)
	Encode(w *wire.Writer)
	SpaceBytes() int
	Estimates() map[string]float64
}

// adapter lifts a Typed estimator to the Estimator interface. It is a
// thin shim: every method is one static call, so the only per-batch cost
// on the ingest hot path is a single extra indirect call.
type adapter[E Typed[E]] struct{ e E }

// Adapt wraps a concrete estimator in the Estimator interface. Two
// adapted values merge iff they wrap the same concrete type; the wrapped
// value stays reachable through Unwrap.
func Adapt[E Typed[E]](e E) Estimator { return adapter[E]{e: e} }

func (a adapter[E]) Observe(it stream.Item)          { a.e.Observe(it) }
func (a adapter[E]) UpdateBatch(items []stream.Item) { a.e.UpdateBatch(items) }
func (a adapter[E]) MarshalBinary() ([]byte, error)  { return a.e.MarshalBinary() }
func (a adapter[E]) Encode(w *wire.Writer)           { a.e.Encode(w) }
func (a adapter[E]) SpaceBytes() int                 { return a.e.SpaceBytes() }
func (a adapter[E]) Estimates() map[string]float64   { return a.e.Estimates() }

func (a adapter[E]) Merge(other Estimator) error {
	o, ok := other.(adapter[E])
	if !ok {
		return fmt.Errorf("estimator: cannot merge %T into %T", Unwrap(other), a.e)
	}
	return a.e.Merge(o.e)
}

func (a adapter[E]) EstimatorReport() Report {
	if r, ok := any(a.e).(Reporter); ok {
		return r.EstimatorReport()
	}
	return Report{Values: a.e.Estimates()}
}

func (a adapter[E]) Unwrap() any { return a.e }

// Unwrap returns the concrete estimator behind an interface value, for
// callers that need type-specific extras (error bounds, hitter reports).
// Non-adapted values are returned as-is.
func Unwrap(e Estimator) any {
	if u, ok := e.(interface{ Unwrap() any }); ok {
		return u.Unwrap()
	}
	return e
}

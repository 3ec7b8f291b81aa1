package levelset

import (
	"fmt"
	"math"

	"substream/internal/sketch"
	"substream/internal/stream"
	"substream/internal/wire"
)

// This file serializes the collision counters with the shared wire
// primitives of internal/wire, so an agent process can ship its
// level-set state to a collector and the collector can fold it with the
// Merge paths in merge.go. They ride only inside internal/core's Fk
// payload, which reaches them through DecodeCollisionCounter; the
// levelset package owns the tag range 0x10–0x1f (see
// internal/server/doc.go).

// Type tags for the serialized collision counters. 0x12 was the
// Indyk–Woodruff estimator's and is never reused.
const (
	TagExactCounter byte = 0x10
	TagEstimator    byte = 0x11
)

// maxWireReps bounds the decoded repetition/level counts; both default to
// single digits and are never legitimately large.
const maxWireReps = 1 << 10

// MarshalBinary serializes the counter.
func (c *ExactCounter) MarshalBinary() ([]byte, error) { return wire.Marshal(c) }

// Encode writes the counter, the frequencies as a sorted item run, so
// equal counters serialize identically.
func (c *ExactCounter) Encode(w *wire.Writer) {
	w.Header(TagExactCounter)
	w.U64(c.counts.N())
	c.counts.Encode(w)
}

// DecodeExactCounter reads an ExactCounter written by Encode.
func DecodeExactCounter(r *wire.Reader) (*ExactCounter, error) {
	r.Header(TagExactCounter)
	n := r.U64()
	c := new(ExactCounter)
	c.counts.Decode(r, n)
	// n is by construction the sum of all frequencies; a mismatch means
	// corruption.
	if r.Err() == nil && c.counts.N() != n {
		r.Failf("levelset: exact counter frequencies sum to %d, header says %d", c.counts.N(), n)
	}
	return c, r.Err()
}

// MarshalBinary serializes the level-set estimator.
func (e *Estimator) MarshalBinary() ([]byte, error) { return wire.Marshal(e) }

// Encode writes the estimator: band geometry, the heavy SpaceSaving
// summary nested in place, and each repetition's universe hash, threshold,
// and exactly-tracked frequencies as a sorted item run whose entries each
// carry the item's level byte.
func (e *Estimator) Encode(w *wire.Writer) {
	w.Header(TagEstimator)
	w.F64(e.epsPrime)
	w.F64(e.eta)
	w.U32(uint32(e.budget))
	w.Nest(e.heavy)
	w.U32(uint32(len(e.reps)))
	var buf [2][]int32
	for _, rs := range e.reps {
		rs.encode(w, &buf)
	}
}

// encode writes one repetition's part of the payload. The run is in
// increasing item order, so equal states serialize identically whatever
// order their slabs grew in: an unfed slab is written as it stands, a fed
// one through its sorted positions, sorted into the caller's buf because
// encoding only reads the state. A sizing pass takes the entries in any
// order.
func (rs *repState) encode(w *wire.Writer, buf *[2][]int32) {
	w.Hash2(rs.hash)
	w.U32(uint32(rs.T))
	run := w.Run(len(rs.items))
	if !rs.fed || w.Sizing() {
		for id, it := range rs.items {
			run.Put(it, rs.counts[id])
			w.U8(rs.levels[id])
		}
		return
	}
	for _, id := range rs.above(0, buf) {
		run.Put(rs.items[id], rs.counts[id])
		w.U8(rs.levels[id])
	}
}

// DecodeEstimator reads an Estimator written by Encode.
func DecodeEstimator(r *wire.Reader) (*Estimator, error) {
	r.Header(TagEstimator)
	epsPrime := r.F64()
	eta := r.F64()
	budget := r.Count(wire.MaxWireElems, 0)
	if r.Err() == nil && !(epsPrime > 0 && !math.IsInf(epsPrime, 0) && eta > 0 && eta <= 1 && budget >= 1) {
		r.Fail()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	heavy, err := wire.Nest(r, sketch.DecodeSpaceSaving)
	if err != nil {
		return nil, err
	}
	if heavy.K() != budget {
		return nil, fmt.Errorf("levelset: heavy summary k=%d does not match budget %d", heavy.K(), budget)
	}
	nReps := r.Count(maxWireReps, 1)
	if r.Err() == nil && nReps < 1 {
		r.Fail()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	e := &Estimator{epsPrime: epsPrime, eta: eta, budget: budget,
		heavy: heavy, reps: make([]*repState, nReps)}
	for i := range e.reps {
		hash := r.Hash2()
		T := r.Count(maxLevel, 0)
		run := r.Run(wire.MaxWireElems, wire.RunEntryBytes+1, math.MaxUint64)
		// Observe and merge raise T until the tracked set fits the budget,
		// and stop short of it only at maxLevel.
		if r.Err() == nil && run.N > budget && T < maxLevel {
			r.Failf("levelset: repetition %d tracks %d items over its budget of %d at threshold %d", i, run.N, budget, T)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		// The run's keys strictly increase (RunReader.Next refuses anything
		// else), so the slab is unfed as decoded: in item order, no index.
		rs := &repState{hash: hash, T: T, budget: budget, items: make([]stream.Item, 0, run.N),
			counts: make([]uint64, 0, run.N), levels: make([]uint8, 0, run.N)}
		for run.Next() {
			// Every tracked item's sampling level is at least the final
			// threshold (lower levels were evicted when T rose).
			level := r.U8()
			if r.Err() == nil && (int(level) < T || int(level) > maxLevel) {
				r.Fail()
			}
			rs.push(run.Item, run.Count, level)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		e.reps[i] = rs
	}
	return e, nil
}

// DecodeCollisionCounter reads whichever collision counter r is about to
// yield. The switch is closed over the two with a wire form, so a crafted
// payload cannot nest a composite estimator (which itself embeds a
// collision counter) and recurse the decoder to arbitrary depth.
func DecodeCollisionCounter(r *wire.Reader) (CollisionCounter, error) {
	tag := r.Tag()
	switch tag {
	case TagExactCounter:
		return DecodeExactCounter(r)
	case TagEstimator:
		return DecodeEstimator(r)
	}
	r.Failf("levelset: payload tag %#x is not a collision counter", tag)
	return nil, r.Err()
}

package sketch

import (
	"substream/internal/rng"
	"substream/internal/stream"
)

// This file adds batched update paths. UpdateBatch(items) produces state
// bit-identical to calling Observe on each item in order (the invariant
// TestUpdateBatchMatchesObserve pins here, and internal/estimator's
// equivalence test again for every registered kind that nests these),
// but amortizes the per-item costs that dominate high-throughput
// ingestion: interface dispatch at the call site, hash and row
// bookkeeping for the table-based sketches (reorganized row-major on the
// flat Hash2/Hash4 kernels so each row's coefficients stay in registers
// across the whole batch), index lookups for the counter-based summaries
// (amortized across runs of equal items), and heap admission for KMV
// (a threshold prefilter rejects most hashes before any map or heap
// work).
//
// The sharded ingestion pipeline (internal/pipeline) feeds estimators
// exclusively through this path.

// UpdateBatch records one occurrence of every item in items. It is
// equivalent to (but faster than) calling Observe per item: the loop runs
// row-major, so one row kernel and one table row are reused across the
// whole batch, and the main loop evaluates four keys per iteration
// through the lane kernel — four independent multiply-reduce chains the
// CPU overlaps, where the scalar loop serialized on one. Table
// increments stay in item order, so the state is bit-identical to the
// scalar path (and to per-item Observe).
func (cm *CountMin) UpdateBatch(items []stream.Item) {
	rr := cm.rr
	for row := 0; row < cm.depth; row++ {
		h := cm.rows[row]
		base := row * cm.width
		tbl := cm.table[base : base+cm.width : base+cm.width]
		i := 0
		for ; i+4 <= len(items); i += 4 {
			h0, h1, h2, h3 := h.HashLanes4(
				uint64(items[i]), uint64(items[i+1]), uint64(items[i+2]), uint64(items[i+3]))
			tbl[rr.Bucket(h0)]++
			tbl[rr.Bucket(h1)]++
			tbl[rr.Bucket(h2)]++
			tbl[rr.Bucket(h3)]++
		}
		for ; i < len(items); i++ {
			tbl[rr.Bucket(h.Hash(uint64(items[i])))]++
		}
	}
	cm.n += uint64(len(items))
}

// UpdateBatch records one occurrence of every item in items, row-major
// like CountMin.UpdateBatch: each row keeps its bucket and sign kernels
// in registers while scanning the batch four keys at a time, sharing one
// lane reduction between the bucket and sign evaluations.
func (cs *CountSketch) UpdateBatch(items []stream.Item) {
	rr := cs.rr
	for row := 0; row < cs.depth; row++ {
		bucket, sign := cs.buckets[row], cs.signs[row]
		base := row * cs.width
		tbl := cs.table[base : base+cs.width : base+cs.width]
		i := 0
		for ; i+4 <= len(items); i += 4 {
			x0, x1, x2, x3 := rng.Mod61Lanes4(
				uint64(items[i]), uint64(items[i+1]), uint64(items[i+2]), uint64(items[i+3]))
			b0, b1, b2, b3 := bucket.EvalLanes4(x0, x1, x2, x3)
			s0, s1, s2, s3 := sign.EvalLanes4(x0, x1, x2, x3)
			tbl[rr.Bucket(b0)] += int64(s0&1)*2 - 1
			tbl[rr.Bucket(b1)] += int64(s1&1)*2 - 1
			tbl[rr.Bucket(b2)] += int64(s2&1)*2 - 1
			tbl[rr.Bucket(b3)] += int64(s3&1)*2 - 1
		}
		for ; i < len(items); i++ {
			x := rng.Mod61(uint64(items[i]))
			tbl[rr.Bucket(bucket.Eval(x))] += int64(sign.Eval(x)&1)*2 - 1
		}
	}
	cs.n += uint64(len(items))
}

// UpdateBatch feeds every item in items through a hash-then-threshold
// prefilter: once the heap is full, a hash at or above the current k-th
// minimum can change nothing (admitHash would reject it, duplicate or
// not), so the batch loop discards it before any map lookup or heap
// work. The main loop hashes four items per iteration through the lane
// kernel, then applies the threshold test in item order — admissions
// update the threshold exactly where the scalar loop would, so the state
// is bit-identical. On a saturated sketch almost every lane takes the
// compare-and-skip path.
func (s *KMV) UpdateBatch(items []stream.Item) {
	h := s.h
	i := 0
	for ; i+4 <= len(items); i += 4 {
		h0, h1, h2, h3 := h.HashLanes4(
			uint64(items[i]), uint64(items[i+1]), uint64(items[i+2]), uint64(items[i+3]))
		// The threshold (heap root) may move on admission, so each lane
		// re-reads it — in-order processing keeps scalar equivalence.
		if len(s.heap) != s.k || h0 < s.heap[0] {
			s.admitHash(h0)
		}
		if len(s.heap) != s.k || h1 < s.heap[0] {
			s.admitHash(h1)
		}
		if len(s.heap) != s.k || h2 < s.heap[0] {
			s.admitHash(h2)
		}
		if len(s.heap) != s.k || h3 < s.heap[0] {
			s.admitHash(h3)
		}
	}
	for ; i < len(items); i++ {
		hv := h.Hash(uint64(items[i]))
		if len(s.heap) == s.k && hv >= s.heap[0] {
			continue
		}
		s.admitHash(hv)
	}
}

// UpdateBatch feeds every item in items, one observeRun — one index
// lookup, one sift — per run of equal items.
func (ss *SpaceSaving) UpdateBatch(items []stream.Item) {
	ss.own()
	for i := 0; i < len(items); {
		j := i + 1
		for j < len(items) && items[j] == items[i] {
			j++
		}
		ss.observeRun(items[i], uint64(j-i))
		i = j
	}
}

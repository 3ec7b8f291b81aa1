package sketch

import (
	"math/bits"

	"substream/internal/rng"
	"substream/internal/stream"
)

// This file adds batched update paths. UpdateBatch(items) produces state
// bit-identical to calling Observe on each item in order (the invariant
// internal/estimator's equivalence test pins for every registered kind),
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

// UpdateBatch feeds every item in items with the register array and hash
// seeds hoisted into locals and the mix computed four items per
// iteration: Mix64's multiply/xor chain has no memory traffic, so the
// four independent lanes pipeline. Register maxima commute, and lanes
// are applied in item order anyway, so the state is bit-identical to
// Observe.
func (h *HLL) UpdateBatch(items []stream.Item) {
	regs := h.registers
	a, b, p := h.seedA, h.seedB, h.precision
	sentinel := uint64(1) << (p - 1) // bounds the rank like Observe
	i := 0
	for ; i+4 <= len(items); i += 4 {
		x0 := rng.Mix64(uint64(items[i])*a + b)
		x1 := rng.Mix64(uint64(items[i+1])*a + b)
		x2 := rng.Mix64(uint64(items[i+2])*a + b)
		x3 := rng.Mix64(uint64(items[i+3])*a + b)
		r0 := uint8(bits.LeadingZeros64(x0<<p|sentinel)) + 1
		r1 := uint8(bits.LeadingZeros64(x1<<p|sentinel)) + 1
		r2 := uint8(bits.LeadingZeros64(x2<<p|sentinel)) + 1
		r3 := uint8(bits.LeadingZeros64(x3<<p|sentinel)) + 1
		if idx := x0 >> (64 - p); r0 > regs[idx] {
			regs[idx] = r0
		}
		if idx := x1 >> (64 - p); r1 > regs[idx] {
			regs[idx] = r1
		}
		if idx := x2 >> (64 - p); r2 > regs[idx] {
			regs[idx] = r2
		}
		if idx := x3 >> (64 - p); r3 > regs[idx] {
			regs[idx] = r3
		}
	}
	for ; i < len(items); i++ {
		x := rng.Mix64(uint64(items[i])*a + b)
		idx := x >> (64 - p)
		rest := x<<p | sentinel
		rank := uint8(bits.LeadingZeros64(rest)) + 1
		if rank > regs[idx] {
			regs[idx] = rank
		}
	}
}

// UpdateBatch feeds every item in items, amortizing map lookups across
// runs of equal items: a run landing on a tracked counter pays one
// lookup and one write for the whole run (a tracked counter only grows,
// so no decrement-all can fire mid-run). Untracked items take the exact
// per-item Observe policy.
func (mg *MisraGries) UpdateBatch(items []stream.Item) {
	for i := 0; i < len(items); {
		it := items[i]
		j := i + 1
		for j < len(items) && items[j] == it {
			j++
		}
		run := uint64(j - i)
		if c, ok := mg.counters[it]; ok {
			mg.counters[it] = c + run
			mg.n += run
			i = j
			continue
		}
		// Untracked: the Observe policy, inlined so the admission reuses
		// this loop's lookup instead of paying a second one.
		mg.n++
		i++
		if len(mg.counters) < mg.k {
			// Admitted — the rest of the run increments the new counter.
			mg.counters[it] = run
			mg.n += run - 1
			i = j
			continue
		}
		// Decrement-all; the next occurrence in the run (if any) retries
		// with whatever capacity the deletions freed.
		for key, c := range mg.counters {
			if c == 1 {
				delete(mg.counters, key)
			} else {
				mg.counters[key] = c - 1
			}
		}
	}
}

// UpdateBatch feeds every item in items, one observeRun — one index
// lookup, one sift — per run of equal items.
func (ss *SpaceSaving) UpdateBatch(items []stream.Item) {
	for i := 0; i < len(items); {
		j := i + 1
		for j < len(items) && items[j] == items[i] {
			j++
		}
		ss.observeRun(items[i], uint64(j-i))
		i = j
	}
}

// UpdateBatch feeds every item in items, probe-major: each reservoir
// probe's state stays in registers while it scans the batch. The probes'
// generator draws interleave differently than per-item Observe, so the
// resulting state is statistically — not bit-for-bit — identical; this
// sketch has no wire form, and the registered entropy kind uses the
// plugin backend.
func (e *EntropyEstimator) UpdateBatch(items []stream.Item) {
	n := e.n
	for probe := range e.items {
		cur, cnt := e.items[probe], e.counts[probe]
		pos := n
		for _, it := range items {
			pos++
			if e.r.Uint64n(pos) == 0 {
				cur, cnt = it, 1
			} else if cur == it && cnt > 0 {
				cnt++
			}
		}
		e.items[probe], e.counts[probe] = cur, cnt
	}
	e.n = n + uint64(len(items))
}

package sample

import (
	"substream/internal/rng"
	"substream/internal/stream"
)

// This file implements the NetFlow-adjacent samplers from the related
// work: deterministic 1-in-N sampling and sample-and-hold
// (Estan–Varghese), the comparison substrates of experiments E11/E12.

// OneInN is deterministic systematic sampling: it keeps every N-th
// element, the non-random variant of sampled NetFlow.
type OneInN struct {
	N int
}

// NewOneInN returns a 1-in-N sampler; it panics if n < 1.
func NewOneInN(n int) OneInN {
	if n < 1 {
		panic("sample: OneInN requires n >= 1")
	}
	return OneInN{N: n}
}

// Apply materializes the systematic sample: positions N−1, 2N−1, …
func (o OneInN) Apply(s stream.Stream) stream.Slice {
	var out stream.Slice
	pos := 0
	_ = s.ForEach(func(it stream.Item) error {
		pos++
		if pos%o.N == 0 {
			out = append(out, it)
		}
		return nil
	})
	return out
}

// SampleAndHold implements Estan–Varghese sample-and-hold: once any packet
// of a flow is sampled (with probability p per packet), every subsequent
// packet of that flow is counted exactly. It reports, per held flow, the
// exact count observed after the flow entered the table. MaxFlows bounds
// memory; when the table is full, new flows are no longer admitted (the
// standard practical fallback).
type SampleAndHold struct {
	p        float64
	maxFlows int
	counts   map[stream.Item]uint64
	r        *rng.Xoshiro256
}

// NewSampleAndHold returns a sample-and-hold monitor with per-packet
// admission probability p and a table capacity of maxFlows (0 means
// unbounded).
func NewSampleAndHold(p float64, maxFlows int, r *rng.Xoshiro256) *SampleAndHold {
	if p <= 0 || p > 1 {
		panic("sample: SampleAndHold probability must be in (0, 1]")
	}
	if maxFlows < 0 {
		panic("sample: SampleAndHold maxFlows must be >= 0")
	}
	return &SampleAndHold{p: p, maxFlows: maxFlows, counts: make(map[stream.Item]uint64), r: r}
}

// Observe feeds one packet.
func (sh *SampleAndHold) Observe(it stream.Item) {
	if c, held := sh.counts[it]; held {
		sh.counts[it] = c + 1
		return
	}
	if sh.r.Float64() < sh.p {
		if sh.maxFlows > 0 && len(sh.counts) >= sh.maxFlows {
			return
		}
		sh.counts[it] = 1
	}
}

// Counts returns the held flows and their observed counts. The map is the
// monitor's own state; callers must not mutate it.
func (sh *SampleAndHold) Counts() map[stream.Item]uint64 { return sh.counts }

// EstimateFreq returns the standard sample-and-hold frequency estimate for
// a held flow: observed count plus the expected 1/p − 1 packets missed
// before admission. Returns 0 for flows not held.
func (sh *SampleAndHold) EstimateFreq(it stream.Item) float64 {
	c, held := sh.counts[it]
	if !held {
		return 0
	}
	return float64(c) + 1/sh.p - 1
}

package main

import (
	"encoding/binary"
	"strconv"
	"sync"

	"substream/internal/stream"
)

// The logical stream every workload slices its bodies from: Zipf(1.1)
// ranks over 2^20, mapped to IPv4-looking keys so the daemon's
// subset-sum prefix queries have something to select.
const (
	zipfS        = 1.1
	zipfUniverse = 1 << 20
	paretoAlpha  = 1.3
	// subsetPrefix is the dashboard's subset-sum query; keyOf puts the odd
	// ranks (rank 1, the heaviest, included) inside it.
	subsetPrefix = "10.0.0.0/8"
)

// keyOf maps a Zipf rank to a key following the daemon's netflow
// convention (IPv4 address in the low 32 bits): odd ranks land in
// 10.0.0.0/8, even ranks in 172.16.0.0/12. Keys are never 0.
func keyOf(rank uint64) stream.Item {
	if rank&1 == 1 {
		return stream.Item(0x0A000000 | rank>>1)
	}
	return stream.Item(0xAC100000 | rank>>1)
}

// inSubset mirrors the daemon's predicate for subsetPrefix.
func inSubset(it stream.Item) bool { return uint64(it)&0xffff_ffff>>24 == 10 }

// genGoroutines is how many goroutines build inputs; each fills a
// disjoint index range of the one logical stream.
const genGoroutines = 2

// parallelRanges runs fn over genGoroutines disjoint sub-ranges of [0, n).
func parallelRanges(n int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	for g := 0; g < genGoroutines; g++ {
		lo, hi := n*g/genGoroutines, n*(g+1)/genGoroutines
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// genItems materializes items [0, n) of the logical stream for seed.
func genItems(seed uint64, n int) []stream.Item {
	z := newSeekableZipf(zipfUniverse, zipfS, subSeed(seed, "keys"))
	out := make([]stream.Item, n)
	parallelRanges(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = keyOf(z.Nth(uint64(i)))
		}
	})
	return out
}

// weightText renders a weight the way weighted text bodies carry it.
// Truth is computed from the parsed text, never from the unrounded draw,
// so harness and daemon agree on every weight to the last bit.
func weightText(dst []byte, w float64) []byte {
	return strconv.AppendFloat(dst, w, 'g', 6, 64)
}

// genWeights materializes the Pareto weights of items [0, n), already
// rounded through their wire text form.
func genWeights(seed uint64, n int) []float64 {
	ws := subSeed(seed, "weights")
	out := make([]float64, n)
	parallelRanges(n, func(lo, hi int) {
		var buf []byte
		for i := lo; i < hi; i++ {
			buf = weightText(buf[:0], paretoNth(ws, uint64(i), paretoAlpha))
			w, err := strconv.ParseFloat(string(buf), 64)
			if err != nil {
				panic(err) // unreachable: AppendFloat output always parses
			}
			out[i] = w
		}
	})
	return out
}

// encodeBinary renders items in the daemon's application/octet-stream
// form: fixed 8-byte little-endian records.
func encodeBinary(items []stream.Item) []byte {
	buf := make([]byte, 8*len(items))
	for i, it := range items {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(it))
	}
	return buf
}

// encodeWeightedText renders (key, weight) pairs in the daemon's
// text/vnd.substream.weighted form: one "key weight" line per item.
func encodeWeightedText(items []stream.Item, weights []float64) []byte {
	buf := make([]byte, 0, 24*len(items))
	for i, it := range items {
		buf = strconv.AppendUint(buf, uint64(it), 10)
		buf = append(buf, ' ')
		buf = weightText(buf, weights[i])
		buf = append(buf, '\n')
	}
	return buf
}

// bodySet is a run of consecutive slices of the logical stream, encoded
// for the wire: body b covers items [lo + b·per, lo + (b+1)·per).
type bodySet struct {
	lo, per int
	bodies  [][]byte
	ctype   string
}

// newBodySet encodes items [lo, hi) as (hi−lo)/per bodies, in parallel.
func newBodySet(in *inputs, lo, hi, per int, weighted bool) *bodySet {
	n := (hi - lo) / per
	bs := &bodySet{lo: lo, per: per, bodies: make([][]byte, n), ctype: ctypeBinary}
	if weighted {
		bs.ctype = ctypeTextWeighted
	}
	parallelRanges(n, func(a, b int) {
		for i := a; i < b; i++ {
			s, e := lo+i*per, lo+(i+1)*per
			if weighted {
				bs.bodies[i] = encodeWeightedText(in.items[s:e], in.weights[s:e])
			} else {
				bs.bodies[i] = encodeBinary(in.items[s:e])
			}
		}
	})
	return bs
}

// inputs is everything a workload's set-up generates from -seed.
type inputs struct {
	items   []stream.Item
	weights []float64 // nil unless the workload has a weighted stream
}

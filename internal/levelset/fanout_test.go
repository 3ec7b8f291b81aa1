package levelset

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"substream/internal/rng"
	"substream/internal/sketch"
)

// Tests of Merge's fan-out: the parts fold on goroutines of their own, and
// the result must be the serial fold's, byte for byte, on every layout,
// with the argument only read — also when several folds read it at once.

// serialMerge is Merge with its parts folded one after another on the
// caller's goroutine: the reference the concurrent fold must equal.
func serialMerge(e, other *Estimator) error {
	if e.epsPrime != other.epsPrime || e.budget != other.budget || len(e.reps) != len(other.reps) || e.eta != other.eta {
		return sketch.ErrIncompatible
	}
	for i := range e.reps {
		for _, probe := range mergeProbes {
			if e.reps[i].hash.Hash(probe) != other.reps[i].hash.Hash(probe) {
				return sketch.ErrIncompatible
			}
		}
	}
	if err := e.heavy.Merge(other.heavy); err != nil {
		return err
	}
	for i := range e.reps {
		e.reps[i].merge(other.reps[i])
	}
	return nil
}

// TestMergeFanOutMatchesSerialFold folds 1–16 states of mixed layouts
// into fed and decoded receivers with Merge and with serialMerge, and
// requires identical bytes after every merge and an argument its twin
// still encodes like.
func TestMergeFanOutMatchesSerialFold(t *testing.T) {
	const budget = 256
	mk := layouts(t, budget)
	kinds := []string{"fed", "decoded", "merged"}
	for _, recv := range []string{"fed", "decoded"} {
		for n := 1; n <= 16; n++ {
			t.Run(fmt.Sprintf("%s/%d", recv, n), func(t *testing.T) {
				r := rng.New(uint64(n))
				s := zipfStream(3000, 1<<13, 1.1, 60)
				acc, want := mk[recv](s), mk[recv](s)
				for i := range n {
					kind := kinds[r.Uint64n(3)]
					s := zipfStream(500+int(r.Uint64n(2500)), 1<<13, 1.1, uint64(70+i))
					arg, twin := mk[kind](s), mk[kind](s)
					if err := serialMerge(want, twin); err != nil {
						t.Fatal(err)
					}
					if err := acc.Merge(arg); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(lsBytes(t, acc), lsBytes(t, want)) {
						t.Fatalf("merge %d (%s argument): the fan-out differs from the serial fold", i, kind)
					}
					if !bytes.Equal(lsBytes(t, arg), lsBytes(t, twin)) {
						t.Fatalf("merge %d: Merge wrote its %s argument", i, kind)
					}
					checkLayout(t, acc)
				}
			})
		}
	}
}

// TestMergeFanOutSelfMerge merges a state into itself on every layout:
// each repetition's goroutine reads the slab it writes, in place.
func TestMergeFanOutSelfMerge(t *testing.T) {
	for name, mk := range layouts(t, 256) {
		t.Run(name, func(t *testing.T) {
			s := zipfStream(20000, 4000, 1.1, 14)
			a, want := mk(s), mk(s)
			if err := serialMerge(want, want); err != nil {
				t.Fatal(err)
			}
			if err := a.Merge(a); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lsBytes(t, a), lsBytes(t, want)) {
				t.Fatal("self-merge differs from the serial fold")
			}
		})
	}
}

// TestMergeFanOutRefusalLeavesReceiver offers a fed receiver every kind of
// incompatible argument: each is refused before any part is written.
func TestMergeFanOutRefusalLeavesReceiver(t *testing.T) {
	s := zipfStream(20000, 4000, 1.1, 15)
	other := func(cfg Config, seed uint64) *Estimator {
		e := New(cfg, rng.New(seed))
		e.UpdateBatch(s)
		return e
	}
	base := Config{EpsPrime: 0.05, Budget: 256}
	cases := map[string]*Estimator{
		"eps'":   other(Config{EpsPrime: 0.06, Budget: 256}, 11),
		"budget": other(Config{EpsPrime: 0.05, Budget: 128}, 11),
		"reps":   other(Config{EpsPrime: 0.05, Budget: 256, Reps: 3}, 11),
		"seed":   other(base, 12),
	}
	// The same η with other hashes: only the probes refuse it.
	hashes := other(base, 12)
	hashes.eta = other(base, 11).eta
	cases["hashes"] = hashes
	for name, arg := range cases {
		t.Run(name, func(t *testing.T) {
			a := other(base, 11)
			before := lsBytes(t, a)
			if err := a.Merge(arg); err == nil {
				t.Fatal("an incompatible argument was merged")
			}
			if !bytes.Equal(lsBytes(t, a), before) {
				t.Fatal("a refused merge changed the receiver")
			}
		})
	}
}

// TestMergeFanOutConcurrentFolds has several goroutines fold the same
// states at once into accumulators of their own, as concurrent collector
// queries fold the retained decoded states (and local queries an agent's
// settled replicas): every fold must equal the serial one, and under
// -race no argument may be written.
func TestMergeFanOutConcurrentFolds(t *testing.T) {
	const budget, folds = 256, 4
	mk := layouts(t, budget)
	var states []*Estimator
	for i := range 16 {
		kind := "decoded"
		if i%4 == 3 {
			kind = "fed"
		}
		states = append(states, mk[kind](zipfStream(2000+100*i, 1<<13, 1.1, uint64(90+i))))
	}
	fold := func(merge func(e, other *Estimator) error) ([]byte, error) {
		acc := lsOf(budget, nil)
		for _, st := range states {
			if err := merge(acc, st); err != nil {
				return nil, err
			}
		}
		return acc.MarshalBinary()
	}
	want, err := fold(serialMerge)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, folds)
	errs := make([]error, folds)
	var wg sync.WaitGroup
	for g := range folds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = fold((*Estimator).Merge)
		}()
	}
	wg.Wait()
	for g := range folds {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !bytes.Equal(got[g], want) {
			t.Fatalf("fold %d differs from the serial fold", g)
		}
	}
}

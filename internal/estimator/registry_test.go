package estimator_test

import (
	"strings"
	"testing"

	_ "substream/internal/core"
	"substream/internal/estimator"
	"substream/internal/stream"
	_ "substream/internal/window"
	"substream/internal/wire"
)

// --- a new estimator kind, registered from a single package ---
//
// demoF1 demonstrates the registry's extension contract: a complete new
// statistic — constructor, wire form, merge, reporting — defined entirely
// in this (test) package. Nothing in sketch, levelset, core, server, or
// the CLIs knows it exists, yet it constructs from a Spec, ships through
// Decode, and merges like every built-in kind. It estimates F1(P) = nL/p,
// the simplest statistic of a sub-sampled stream.

const demoTag byte = 0x70 // outside every package-owned range

type demoF1 struct {
	p  float64
	nL uint64
}

func (d *demoF1) Observe(stream.Item) { d.nL++ }

func (d *demoF1) UpdateBatch(items []stream.Item) { d.nL += uint64(len(items)) }

func (d *demoF1) Merge(other *demoF1) error { d.nL += other.nL; return nil }

func (d *demoF1) SpaceBytes() int { return 16 }

func (d *demoF1) Estimates() map[string]float64 {
	return map[string]float64{"f1": float64(d.nL) / d.p}
}

func (d *demoF1) MarshalBinary() ([]byte, error) { return wire.Marshal(d) }

func (d *demoF1) Encode(w *wire.Writer) {
	w.Header(demoTag)
	w.F64(d.p)
	w.U64(d.nL)
}

func decodeDemoF1(r *wire.Reader) (*demoF1, error) {
	r.Header(demoTag)
	p := r.F64()
	nL := r.U64()
	if r.Err() == nil && !(p > 0 && p <= 1) {
		r.Fail()
	}
	return &demoF1{p: p, nL: nL}, r.Err()
}

func init() {
	estimator.Register(estimator.Kind{
		Tag: demoTag, Name: "demo-f1",
		Doc: "demo kind: exact F1(P) from the sampled length (test-only)",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(&demoF1{p: s.P}), nil
		},
		Decode: estimator.DecodeTyped(decodeDemoF1),
	})
}

// demoSpec returns a spec usable by every registered kind.
func demoSpec(stat string) estimator.Spec {
	return estimator.Spec{
		Stat: stat, P: 0.5, K: 2, Epsilon: 0.2, Alpha: 0.05, Budget: 64, Seed: 7,
	}
}

// TestNewKindFromSinglePackage is the extension-story acceptance test:
// the kind registered above, with no edits anywhere else, runs the full
// agent/collector life cycle through registry entry points alone.
func TestNewKindFromSinglePackage(t *testing.T) {
	// Construct via the registry, as the daemon's stream builder would.
	a, err := estimator.New(demoSpec("demo-f1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := estimator.New(demoSpec("demo-f1"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		a.Observe(stream.Item(i))
	}
	b.UpdateBatch(make([]stream.Item, 20))

	// Ship: encode on the agent, decode on the collector, merge.
	payload, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := estimator.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Merge(decoded); err != nil {
		t.Fatal(err)
	}
	if got := b.Estimates()["f1"]; got != 50/0.5 {
		t.Fatalf("merged f1 estimate = %v, want %v", got, 50/0.5)
	}
	// And it must refuse foreign kinds like every other estimator.
	foreign, err := estimator.New(demoSpec("f0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Merge(foreign); err == nil {
		t.Fatal("merging a foreign kind did not fail")
	}
}

// TestRegistryInvariants checks the global registry shape: unique tags
// and names (Register enforces this — the test documents it against the
// live set), package-owned tag ranges, and mandatory decoders.
func TestRegistryInvariants(t *testing.T) {
	kinds := estimator.Kinds()
	if len(kinds) < 10 {
		t.Fatalf("registry holds %d kinds, want at least the 10 standard ones", len(kinds))
	}
	tags := map[byte]string{}
	names := map[string]byte{}
	for _, k := range kinds {
		if prev, dup := tags[k.Tag]; dup {
			t.Errorf("tag %#x registered twice (%q and %q)", k.Tag, prev, k.Name)
		}
		if _, dup := names[k.Name]; dup {
			t.Errorf("name %q registered twice", k.Name)
		}
		tags[k.Tag] = k.Name
		names[k.Name] = k.Tag
		if k.Decode == nil {
			t.Errorf("kind %q has no decoder", k.Name)
		}
		if k.Doc == "" {
			t.Errorf("kind %q has no doc line", k.Name)
		}
	}
	for _, k := range kinds {
		if k.Tag >= 0x40 {
			continue // test-only kinds live outside the owned ranges
		}
		if k.Tag == 0 {
			t.Errorf("kind %q uses reserved tag 0x00", k.Name)
		}
	}
	stats := estimator.Stats()
	for i := 1; i < len(stats); i++ {
		if stats[i-1] >= stats[i] {
			t.Fatalf("Stats() not sorted/unique: %v", stats)
		}
	}
}

// TestRegisterRejectsConflicts proves duplicate registration is an init
// failure, not a silent overwrite.
func TestRegisterRejectsConflicts(t *testing.T) {
	for name, kind := range map[string]estimator.Kind{
		"duplicate tag":  {Tag: demoTag, Name: "demo-f1-copy", Decode: estimator.DecodeTyped(decodeDemoF1)},
		"duplicate name": {Tag: 0x71, Name: "demo-f1", Decode: estimator.DecodeTyped(decodeDemoF1)},
		"missing decode": {Tag: 0x72, Name: "demo-undecodable"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", name)
				}
			}()
			estimator.Register(kind)
		}()
	}
}

// TestEveryKindRoundTripsEncodeDecodeMerge drives every constructible
// kind through the life cycle the daemon relies on: build two replicas
// from one spec, feed both, encode one, decode it through the registry,
// merge it into the other, and re-encode the result. Estimates of a
// decoded summary must equal its source's — the wire form is the state.
func TestEveryKindRoundTripsEncodeDecodeMerge(t *testing.T) {
	for _, k := range estimator.Kinds() {
		if k.New == nil {
			continue
		}
		t.Run(k.Name, func(t *testing.T) {
			spec := demoSpec(k.Name)
			a, err := estimator.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := estimator.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			batch := make([]stream.Item, 512)
			for i := range batch {
				batch[i] = stream.Item(i%97 + 1)
			}
			a.UpdateBatch(batch)
			for i := 0; i < 256; i++ {
				b.Observe(stream.Item(i%31 + 1))
			}

			payload, err := a.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := estimator.Decode(payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			want := a.Estimates()
			got := decoded.Estimates()
			for name, v := range want {
				// Exactly: every float aggregate sums over the profile of
				// the counts, so an estimate is a function of the state alone.
				if got[name] != v {
					t.Errorf("decoded estimate %q = %v, want %v", name, got[name], v)
				}
			}
			if err := b.Merge(decoded); err != nil {
				t.Fatalf("merge decoded: %v", err)
			}
			if _, err := b.MarshalBinary(); err != nil {
				t.Fatalf("re-encode merged: %v", err)
			}
			if b.SpaceBytes() <= 0 {
				t.Fatal("merged summary reports non-positive space")
			}
		})
	}
}

// TestDecodeRejectsUnknownAndEmpty pins the single-entry-point decode
// behavior consumers depend on.
func TestDecodeRejectsUnknownAndEmpty(t *testing.T) {
	if _, err := estimator.Decode(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := estimator.Decode([]byte{0x6f, 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown payload tag") {
		t.Fatalf("unknown tag error = %v", err)
	}
	if _, err := estimator.New(estimator.Spec{Stat: "nope"}); err == nil ||
		!strings.Contains(err.Error(), "unknown stat") {
		t.Fatalf("unknown stat error = %v", err)
	}
}

// TestNewDecodeOnlyKind pins the refusal of the one kind without a
// constructor, the window ring: it is not a stat, and the error says how a
// window is declared instead — with the window and epoch fields, -window
// in the CLIs, around one of the stats, which it lists. An unknown name
// gets the unknown-stat error, and the table the CLIs print marks the
// same distinction.
func TestNewDecodeOnlyKind(t *testing.T) {
	_, err := estimator.New(demoSpec("window"))
	if err == nil {
		t.Fatal("window constructed from a spec")
	}
	for _, want := range []string{`"window" is not a stat`, "window and epoch fields", "-window", strings.Join(estimator.Stats(), " | ")} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("window construction error %q does not say %q", err, want)
		}
	}
	_, err = estimator.New(estimator.Spec{Stat: "nope"})
	if err == nil || strings.Contains(err.Error(), "window") {
		t.Fatalf("unknown kind refused as a window: %v", err)
	}

	var out strings.Builder
	estimator.WriteKinds(&out)
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "window"):
			if !strings.Contains(line, "wrapper") {
				t.Errorf("window row unmarked: %q", line)
			}
		case strings.HasPrefix(line, "f0"):
			if !strings.Contains(line, "stat") {
				t.Errorf("f0 row unmarked: %q", line)
			}
		}
	}
}

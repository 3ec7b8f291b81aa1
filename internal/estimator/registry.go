package estimator

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"substream/internal/wire"
)

// Spec is the estimator-affecting configuration a registered kind builds
// fresh instances from. It is the registry-level rendering of the
// library's mergeability rule: all replicas of one logical stream — in
// one process or across agents — must be constructed from an identical
// Spec, Seed included, for their summaries to merge.
type Spec struct {
	// Stat names the kind to build (a registered Kind.Name).
	Stat string
	// P is the Bernoulli sampling probability of the original stream.
	P float64
	// K is the moment order for moment estimators. Default 2.
	K int
	// Epsilon is the target relative error.
	Epsilon float64
	// Alpha is the heaviness threshold for heavy-hitter kinds.
	Alpha float64
	// Budget bounds counter-based summaries (level-set budget, top-k…).
	Budget int
	// Exact selects an exact (unbounded-space) backend where one exists.
	Exact bool
	// Seed constructs the estimator; identical seeds make replicas
	// mergeable.
	Seed uint64
}

// Kind is one registered estimator kind: the binding between a wire tag,
// a stable name, a decoder, and a constructor. Decode is mandatory (every
// kind has a wire form — that is what earns it a tag); New is nil for the
// window ring alone, which internal/window builds around one of the kinds
// that have one.
type Kind struct {
	// Tag is the kind's wire tag: the tag of a top-level payload.
	// internal/core's kinds own 0x20–0x2f, internal/window 0x30–0x3f,
	// internal/quantile 0x40–0x4f and internal/sample 0x50–0x5f. The tags
	// below 0x20 belong to the components core's payloads nest
	// (internal/sketch 0x01–0x0f, internal/levelset 0x10–0x1f), which
	// their parents decode and the registry never sees.
	Tag byte
	// Name is the kind's stable, unique name — the value of a stream
	// config's "stat" field and of the CLIs' -stat flag.
	Name string
	// Doc is a one-line description for -list-estimators.
	Doc string
	// New builds a fresh estimator from a spec. Implementations may
	// panic on out-of-range numeric parameters exactly like the
	// underlying constructors; config-driven callers validate first.
	New func(Spec) (Estimator, error)
	// Decode reads an estimator from a payload carrying this kind's tag,
	// header first, off the Reader it is handed: a top-level payload's or,
	// for a replica nested in a composite, its parent's.
	Decode func(*wire.Reader) (Estimator, error)
}

var (
	regMu  sync.RWMutex
	byTag  = map[byte]Kind{}
	byName = map[string]Kind{}
)

// Register adds a kind to the registry. It panics on a duplicate tag or
// name, a missing decoder, or an empty name — registration happens at
// init time, where a conflict is a programming error that must not ship.
func Register(k Kind) {
	if k.Name == "" || k.Decode == nil {
		panic(fmt.Sprintf("estimator: kind %#x must have a name and a decoder", k.Tag))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if dup, ok := byTag[k.Tag]; ok {
		panic(fmt.Sprintf("estimator: tag %#x registered twice (%q and %q)", k.Tag, dup.Name, k.Name))
	}
	if _, ok := byName[k.Name]; ok {
		panic(fmt.Sprintf("estimator: name %q registered twice", k.Name))
	}
	byTag[k.Tag] = k
	byName[k.Name] = k
}

// Kinds returns every registered kind, sorted by tag.
func Kinds() []Kind {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Kind, 0, len(byTag))
	for _, k := range byTag {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// Lookup returns the kind a stream declares by name — a stream config's
// "stat", a CLI's -stat — or why name is none: an unknown name is refused
// with the stats listed, and "window", the kind with no constructor, with
// how a window is declared instead.
func Lookup(name string) (Kind, error) {
	regMu.RLock()
	k, ok := byName[name]
	regMu.RUnlock()
	switch {
	case !ok:
		return Kind{}, fmt.Errorf("estimator: unknown stat %q (want one of %s)", name, strings.Join(Stats(), " | "))
	case k.New == nil:
		return Kind{}, fmt.Errorf("estimator: %q is not a stat: a window is declared with the window and epoch fields "+
			"(the -window flag in the CLIs) around one of %s", name, strings.Join(Stats(), " | "))
	}
	return k, nil
}

// Stats returns the names of every kind with a constructor in sorted
// order — the legal values of a stream config's "stat" field.
func Stats() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(byName))
	for name, k := range byName {
		if k.New != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// WithDefaults fills unset numeric fields with the registry's defaults.
// New applies them before any constructor runs, which guarantees every
// entry path that builds through the registry — daemon config, CLI,
// estimator.New — builds structurally identical (and therefore
// mergeable) estimators from equal logical specs; the daemon also applies
// them up front, so the config it validates, compares and reports is the
// one it builds from. The core constructors keep zero-value defaults of
// their own for direct callers (FkConfig's Epsilon and Budget,
// MonitorConfig's K, Epsilon and HHAlpha), which a registry-built
// estimator never reaches; they need not agree with these —
// MonitorConfig's HHAlpha defaults to 0.01 where Alpha here is 0.05.
func (s Spec) WithDefaults() Spec {
	if s.K == 0 {
		s.K = 2
	}
	if s.Epsilon == 0 {
		s.Epsilon = 0.2
	}
	if s.Alpha == 0 {
		s.Alpha = 0.05
	}
	if s.Budget == 0 {
		s.Budget = 4096
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// New builds a fresh estimator for spec.Stat through the registry,
// after filling unset spec fields with the library-wide defaults.
func New(spec Spec) (Estimator, error) {
	k, err := Lookup(spec.Stat)
	if err != nil {
		return nil, err
	}
	return k.New(spec.WithDefaults())
}

// Decode reconstructs whichever registered estimator the payload's tag
// byte names — the single entry point a collector needs to revive any
// shipped summary. Unknown tags, like every other corruption, fail
// cleanly; so does a payload whose counter tables, however nested, decode
// to more than wire.MaxDecodedBytes together.
func Decode(data []byte) (Estimator, error) { return wire.Decode(data, DecodeFrom) }

// DecodeFrom is Decode for a payload nested in another: it reads whichever
// registered kind r is about to yield, in place.
func DecodeFrom(r *wire.Reader) (Estimator, error) {
	tag := r.Tag()
	if r.Err() != nil {
		return nil, r.Err()
	}
	regMu.RLock()
	k, ok := byTag[tag]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("estimator: unknown payload tag %#x", tag)
	}
	return k.Decode(r)
}

// WriteKinds renders the registry as the table the CLIs print for
// -list-estimators: one row per kind with its wire tag, whether a stream
// declares it as its stat ("stat") or as a ring around one ("wrapper"),
// and its description.
func WriteKinds(w io.Writer) {
	fmt.Fprintf(w, "%-14s %-5s %-12s %s\n", "NAME", "TAG", "MODE", "DESCRIPTION")
	for _, k := range Kinds() {
		mode := "stat"
		if k.New == nil {
			mode = "wrapper"
		}
		fmt.Fprintf(w, "%-14s 0x%02x  %-12s %s\n", k.Name, k.Tag, mode, k.Doc)
	}
}

// DecodeTyped lifts a package's typed decode function into a registry
// Decode hook: decode with full type safety, then adapt to the interface.
func DecodeTyped[E Typed[E]](decode func(*wire.Reader) (E, error)) func(*wire.Reader) (Estimator, error) {
	return func(r *wire.Reader) (Estimator, error) {
		e, err := decode(r)
		if err != nil {
			return nil, err
		}
		return Adapt(e), nil
	}
}

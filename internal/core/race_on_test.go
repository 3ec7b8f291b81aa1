//go:build race

package core

// raceEnabled reports whether the race detector is active; its
// instrumentation adds bookkeeping allocations that would fail the
// strict zero-alloc assertions.
const raceEnabled = true

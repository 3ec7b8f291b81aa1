package sketch

import (
	"reflect"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
)

// TestLaneBatchBitIdenticalToScalar pins the 4-lane batch loops to the
// scalar per-item path at the level of FULL INTERNAL STATE (tables,
// heaps, registers — not just estimates), exhaustively over batch
// lengths 0..33 so every lane remainder (0, 1, 2, 3) and the
// empty/sub-lane cases are exercised, plus a large skewed batch. Any
// divergence in lane order, threshold handling, or the folded Mod61
// reduction shows up as a state mismatch here before it could reach the
// registry-wide equivalence law.
func TestLaneBatchBitIdenticalToScalar(t *testing.T) {
	big := zipfItems(50_000, 99)
	lengths := make([]int, 0, 36)
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4096, len(big))

	t.Run("countmin", func(t *testing.T) {
		for _, n := range lengths {
			a := NewCountMin(256, 5, rng.New(21))
			b := NewCountMin(256, 5, rng.New(21))
			for _, it := range big[:n] {
				a.Observe(it)
			}
			b.UpdateBatch(big[:n])
			if !reflect.DeepEqual(a.table, b.table) || a.n != b.n {
				t.Fatalf("len %d: CountMin lane state diverges from scalar", n)
			}
		}
	})

	t.Run("countsketch", func(t *testing.T) {
		for _, n := range lengths {
			a := NewCountSketch(256, 5, rng.New(22))
			b := NewCountSketch(256, 5, rng.New(22))
			for _, it := range big[:n] {
				a.Observe(it)
			}
			b.UpdateBatch(big[:n])
			if !reflect.DeepEqual(a.table, b.table) || a.n != b.n {
				t.Fatalf("len %d: CountSketch lane state diverges from scalar", n)
			}
		}
	})

	t.Run("kmv", func(t *testing.T) {
		for _, n := range lengths {
			a := NewKMV(64, rng.New(23))
			b := NewKMV(64, rng.New(23))
			for _, it := range big[:n] {
				a.Observe(it)
			}
			b.UpdateBatch(big[:n])
			if !reflect.DeepEqual(a.heap, b.heap) || !reflect.DeepEqual(a.seen, b.seen) {
				t.Fatalf("len %d: KMV lane state diverges from scalar", n)
			}
		}
	})

	// The KMV threshold moves mid-quad when an admission lands inside a
	// lane group; a descending-hash stream forces admissions on every
	// item, so each quad's later lanes see the thresholds the earlier
	// lanes just changed.
	t.Run("kmv-threshold-churn", func(t *testing.T) {
		a := NewKMV(16, rng.New(25))
		b := NewKMV(16, rng.New(25))
		churn := make(stream.Slice, 512)
		for i := range churn {
			churn[i] = stream.Item(i + 1)
		}
		for _, it := range churn {
			a.Observe(it)
		}
		b.UpdateBatch(churn)
		if !reflect.DeepEqual(a.heap, b.heap) || !reflect.DeepEqual(a.seen, b.seen) {
			t.Fatal("KMV lane state diverges from scalar under threshold churn")
		}
	})
}

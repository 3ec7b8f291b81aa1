package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"substream/internal/estimator"
	"substream/internal/pipeline"
	"substream/internal/stream"
)

// storeKinds are the registry kinds whose state holds the exact counting
// store (sketch.ItemCounts): Algorithm 1 over the exact collision counter,
// the entropy plug-in, GEE, and the Monitor, which carries the plug-in.
// values names the report values that rest on the store (nil: all of
// them); orderFree marks the kinds whose whole payload is a function of
// the multiset of items, whatever path it took. sha256 is the hash of the
// payload the map-backed store wrote for storeStream fed in one batch,
// recorded at the parent commit (9ec34c6): the wire format did not move.
var storeKinds = []struct {
	name      string
	cfg       StreamConfig
	values    []string
	orderFree bool
	sha256    string
}{
	{"fk", StreamConfig{Stat: "fk", K: 3, P: 0.25, Seed: 42, Exact: true}, nil, true,
		"ff7894e92747c33ba0df07d6b2ec4852d3ba9ac8dc71adb3c08fccac4eec76e0"},
	{"entropy", StreamConfig{Stat: "entropy", P: 0.25, Seed: 42}, nil, true,
		"1419d4b50b37f2430e3ef81fe8d4b7ad6dcc25096f6266969019e044ad9669a4"},
	{"gee", StreamConfig{Stat: "gee", P: 0.25, Seed: 42}, nil, true,
		"1d3d06c4ca818d2b7e793dc866c5c2390b4d3cfdb7d7de5bbd119540812a997b"},
	{"all", StreamConfig{Stat: "all", P: 0.25, Seed: 42}, []string{"entropy"}, false,
		"c938aa1214848990a075b7a3492c55130bb638da201d9c3e057131b93fc96d2f"},
}

func storeStream() stream.Slice { return sampledZipf(60000, 0.25, 7) }

// TestExactStoreKindsOneAnswerEveryPath holds every kind over the exact
// counting store to one answer, bit for bit, whatever path its
// frequencies took: one sequential estimator, Decode(Marshal) of it,
// 1–8-shard pipelines folded by MergeAll, a live pipeline folded the way a
// flush folds it (fed → Sync → fed → Sync → fold, the replicas settled by
// their workers at each barrier), 16 agents' summaries folded by a
// collector, and that collector's table restored from its snapshot. The
// payloads of the order-free kinds are the same bytes on every path too,
// and the sequential payload of all four is the one the map-backed store
// wrote.
func TestExactStoreKindsOneAnswerEveryPath(t *testing.T) {
	L := storeStream()
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) {
			spec := kind.cfg.withDefaults().spec()
			fresh := func() estimator.Estimator {
				e, err := estimator.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			marshal := func(e estimator.Estimator) []byte {
				payload, err := e.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				return payload
			}
			seq := fresh()
			seq.UpdateBatch(L)
			want, wantPayload := estimator.ReportOf(seq).Values, marshal(seq)
			if sum := sha256.Sum256(wantPayload); hex.EncodeToString(sum[:]) != kind.sha256 {
				t.Errorf("sequential payload hashes to %s, the map-backed store's to %s", hex.EncodeToString(sum[:]), kind.sha256)
			}
			names := kind.values
			if names == nil {
				for name := range want {
					names = append(names, name)
				}
			}
			sameValues := func(path string, got map[string]float64) {
				t.Helper()
				for _, name := range names {
					if got[name] != want[name] {
						t.Errorf("%s: %s = %v, sequential %v", path, name, got[name], want[name])
					}
				}
			}
			same := func(path string, e estimator.Estimator) {
				t.Helper()
				sameValues(path, estimator.ReportOf(e).Values)
				if kind.orderFree && !bytes.Equal(marshal(e), wantPayload) {
					t.Errorf("%s: payload differs from the sequential one", path)
				}
			}

			back, err := estimator.Decode(wantPayload)
			if err != nil {
				t.Fatal(err)
			}
			same("Decode(Marshal)", back)

			for shards := 1; shards <= 8; shards++ {
				pl := pipeline.New(pipeline.Config{Shards: shards, BatchSize: 256},
					func(int) estimator.Estimator { return fresh() })
				pl.FeedSlice(L)
				merged, err := pipeline.MergeAll(pl)
				if err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("%d-shard MergeAll", shards), merged)
			}

			// A live pipeline, flushed twice: the second feed bumps keys the
			// first settle moved and appends new ones behind the ordered
			// prefix; the fold reads the settled replicas and leaves them to
			// the MergeAll that closes the pipeline.
			pl := pipeline.New(pipeline.Config{Shards: 3, BatchSize: 256},
				func(int) estimator.Estimator { return fresh() })
			for _, part := range splitChunks(L, 2) {
				pl.FeedSlice(part)
				pl.Sync()
			}
			flushed, err := fold(func() (estimator.Estimator, error) { return fresh(), nil }, pl.Replicas())
			if err != nil {
				t.Fatal(err)
			}
			same("fed → Sync → fed → Sync → fold", flushed)
			merged, err := pipeline.MergeAll(pl)
			if err != nil {
				t.Fatal(err)
			}
			same("fed → Sync → fed → Sync → fold → MergeAll", merged)

			dir := t.TempDir()
			c := NewCollector(CollectorConfig{SnapshotDir: dir})
			for i, chunk := range splitChunks(L, 16) {
				e := fresh()
				e.UpdateBatch(chunk)
				if err := c.Accept(Summary{Agent: fmt.Sprintf("a%02d", i), Stream: kind.name, Boot: 1, Seq: 1,
					Config: kind.cfg, Fed: uint64(len(chunk)), Kept: uint64(len(chunk)), Payload: marshal(e)}); err != nil {
					t.Fatal(err)
				}
			}
			g, err := c.Estimate(kind.name)
			if err != nil || g.Agents != 16 {
				t.Fatalf("collector estimate: %+v, %v", g, err)
			}
			sameValues("16-way collector fold", g.Estimates.Values)
			if err := c.SaveSnapshot(); err != nil {
				t.Fatal(err)
			}
			restored, err := NewCollector(CollectorConfig{SnapshotDir: dir}).Estimate(kind.name)
			if err != nil || restored.Agents != 16 {
				t.Fatalf("restored collector estimate: %+v, %v", restored, err)
			}
			sameValues("snapshot restore", restored.Estimates.Values)
		})
	}
}

// TestCollectorQueriesShareRetainedStates runs queries and snapshot
// writes over one retained table from several goroutines while new
// summaries are admitted to it: a fold reads the retained states and
// never writes them, which is what -race checks here. Two fk tables: over
// the exact counter (sketch.ItemCounts.Merge leaves its argument alone,
// and Encode of a decoded state only reads), and over the level set,
// whose decoded SpaceSaving keeps its slab in item order so that Merge
// reads it in place and the snapshot's Encode walks its heap as it
// stands, with a budget small enough that every fold cuts to the top k.
func TestCollectorQueriesShareRetainedStates(t *testing.T) {
	chunks := splitChunks(storeStream(), 8)
	for _, kind := range []struct {
		name string
		cfg  StreamConfig
	}{
		{"exact fk", storeKinds[0].cfg},
		{"level-set fk", StreamConfig{Stat: "fk", K: 3, P: 0.25, Seed: 42, Budget: 256}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			spec := kind.cfg.withDefaults().spec()
			summary := func(agent int, seq uint64) Summary {
				e, err := estimator.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				for _, chunk := range chunks[:seq] {
					e.UpdateBatch(chunk)
				}
				payload, err := e.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				return Summary{Agent: fmt.Sprintf("a%d", agent), Stream: "fk", Boot: 1, Seq: seq, Config: kind.cfg, Payload: payload}
			}
			c := NewCollector(CollectorConfig{SnapshotDir: t.TempDir()})
			if err := c.Accept(summary(0, 1)); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						if got, err := c.Estimate("fk"); err != nil || got.Agents < 1 {
							t.Errorf("estimate under admission: %+v, %v", got, err)
							return
						}
						if g == 0 && i%8 == 0 {
							if err := c.SaveSnapshot(); err != nil {
								t.Errorf("snapshot under admission: %v", err)
								return
							}
						}
					}
				}()
			}
			// New agents join and agent 0 ships newer states while the
			// queries run.
			for seq := uint64(2); seq <= uint64(len(chunks)); seq++ {
				for agent := 0; agent < 2; agent++ {
					if err := c.Accept(summary(agent, seq)); err != nil {
						t.Error(err)
					}
				}
			}
			wg.Wait()
		})
	}
}

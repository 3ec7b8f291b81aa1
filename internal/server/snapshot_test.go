package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"substream/internal/core"
	"substream/internal/estimator"
	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// acceptWorkload ships a small deterministic fleet state into c: two
// streams, two agents each, with distinct payload contents.
func acceptWorkload(t *testing.T, c *Collector) {
	t.Helper()
	for _, stream := range []string{"flows", "bytes"} {
		cfg := StreamConfig{Stat: "f0", P: 0.5, Seed: 7}
		for i, agentID := range []string{"a", "b"} {
			sum := f0Summary(agentID, stream, cfg, uint64(i+1))
			if err := c.Accept(sum); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// estimateAll snapshots every stream's global estimate for comparison.
func estimateAll(t *testing.T, c *Collector, streams ...string) map[string]GlobalEstimate {
	t.Helper()
	out := make(map[string]GlobalEstimate, len(streams))
	for _, name := range streams {
		est, err := c.Estimate(name)
		if err != nil {
			t.Fatalf("estimate %q: %v", name, err)
		}
		out[name] = est
	}
	return out
}

// TestSnapshotRoundTrip pins the durability loop: save a populated
// collector, restore it in a fresh one, and the restored estimates,
// agent counts, and ingest totals are identical.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1 := NewCollector(CollectorConfig{SnapshotDir: dir})
	acceptWorkload(t, c1)
	if err := c1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if n := c1.Metrics().SnapshotWrite.Count(); n != 1 {
		t.Fatalf("snapshot_write_seconds observations: %d, want 1", n)
	}
	if c1.Metrics().SnapshotBytes.Value() <= 0 {
		t.Fatal("collector_snapshot_bytes not set")
	}

	c2 := NewCollector(CollectorConfig{SnapshotDir: dir})
	want := estimateAll(t, c1, "flows", "bytes")
	got := estimateAll(t, c2, "flows", "bytes")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored estimates diverge:\n got %+v\nwant %+v", got, want)
	}
	if n := c2.Metrics().SnapshotRestore.Count(); n != 1 {
		t.Fatalf("snapshot_restore_seconds observations: %d, want 1", n)
	}

	// The restored collector keeps working: newer summaries still fold.
	sum := f0Summary("a", "flows", StreamConfig{Stat: "f0", P: 0.5, Seed: 7}, 9)
	if err := c2.Accept(sum); err != nil {
		t.Fatalf("restored collector rejected a live summary: %v", err)
	}
}

// TestSnapshotRestoreCountsAsSighting pins the staleness decision: a
// collector that was down longer than -max-summary-age answers from the
// restored state (the restore resets the staleness clocks) instead of
// declaring the whole fleet stale at startup.
func TestSnapshotRestoreCountsAsSighting(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c1 := NewCollector(CollectorConfig{SnapshotDir: dir, MaxSummaryAge: time.Minute, Now: clock})
	if err := c1.Accept(f0Summary("a", "flows", StreamConfig{Stat: "f0", P: 0.5, Seed: 7}, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}

	// Two hours of downtime later...
	now = now.Add(2 * time.Hour)
	c2 := NewCollector(CollectorConfig{SnapshotDir: dir, MaxSummaryAge: time.Minute, Now: clock})
	est, err := c2.Estimate("flows")
	if err != nil {
		t.Fatalf("restored collector refused to answer: %v", err)
	}
	if est.Agents != 1 || est.Skipped != 0 {
		t.Fatalf("restored estimate: %d agents, %d skipped; want 1, 0", est.Agents, est.Skipped)
	}
	// The clock still runs from the restore onward.
	now = now.Add(2 * time.Minute)
	if _, err := c2.Estimate("flows"); err == nil {
		t.Fatal("staleness clock did not run after the restore")
	}
}

// TestSnapshotMissingFileIsCleanStart pins that a collector pointed at
// an empty snapshot dir boots empty without errors.
func TestSnapshotMissingFileIsCleanStart(t *testing.T) {
	c := NewCollector(CollectorConfig{SnapshotDir: t.TempDir()})
	if n := c.Metrics().SnapshotErrors.With(causeSnapshotRestore).Value(); n != 0 {
		t.Fatalf("fresh boot bumped snapshot_errors: %d", n)
	}
	if _, err := c.Estimate("flows"); err == nil {
		t.Fatal("empty collector answered for an unknown stream")
	}
}

// TestNewCollectorRemovesOrphanedSnapshotTemps plants the leftover of a
// collector killed between SaveSnapshot's CreateTemp and Rename next to
// a valid snapshot: the next NewCollector removes it and still restores
// the table. A dir that does not exist yet is still a clean first boot.
func TestNewCollectorRemovesOrphanedSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	c := NewCollector(CollectorConfig{SnapshotDir: dir})
	acceptWorkload(t, c)
	if err := c.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, snapshotFile+".tmp-123456")
	if err := os.WriteFile(orphan, []byte("half a snapshot"), 0o600); err != nil {
		t.Fatal(err)
	}
	restored := NewCollector(CollectorConfig{SnapshotDir: dir})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file survived startup (stat err: %v)", err)
	}
	if got, want := estimateAll(t, restored, "flows", "bytes"), estimateAll(t, c, "flows", "bytes"); !reflect.DeepEqual(got, want) {
		t.Fatalf("restore beside an orphan: got %+v, want %+v", got, want)
	}
	first := NewCollector(CollectorConfig{SnapshotDir: filepath.Join(dir, "not-created-yet")})
	if n := first.Metrics().SnapshotErrors.With(causeSnapshotRestore).Value(); n != 0 {
		t.Fatalf("missing snapshot dir bumped snapshot_errors: %d", n)
	}
}

// assertEmptyRestore builds a collector over the (corrupt) snapshot in
// dir and checks the contract: no panic, a bumped restore-error cause,
// and a fully empty table — never a partial one.
func assertEmptyRestore(t *testing.T, dir string) {
	t.Helper()
	c := NewCollector(CollectorConfig{SnapshotDir: dir})
	if n := c.Metrics().SnapshotErrors.With(causeSnapshotRestore).Value(); n != 1 {
		t.Fatalf("snapshot_errors{snapshot_restore} = %d, want 1", n)
	}
	c.mu.RLock()
	streams := len(c.streams)
	c.mu.RUnlock()
	if streams != 0 {
		t.Fatalf("corrupt restore left %d streams retained, want 0 (all-or-nothing)", streams)
	}
}

// TestSnapshotCorruptionBattery sweeps every truncation length and a
// bit flip in every byte of a valid snapshot through the full restore
// path: each must fail cleanly into "start empty + warn" — no panic, no
// partial table. The CRC trailer is what makes the flip sweep total:
// structural validation alone cannot see a content-preserving flip, the
// checksum catches them all.
func TestSnapshotCorruptionBattery(t *testing.T) {
	srcDir := t.TempDir()
	c := NewCollector(CollectorConfig{SnapshotDir: srcDir})
	acceptWorkload(t, c)
	if err := c.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(srcDir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}

	// Every prefix truncation must fail the decode (the trailer no
	// longer matches the shortened body).
	for n := 0; n < len(good); n++ {
		if _, err := decodeSnapshot(good[:n]); err == nil {
			t.Fatalf("decode accepted %d-byte truncation of a %d-byte snapshot", n, len(good))
		}
	}
	// Every single-bit flip is caught — CRC-32 detects all 1-bit errors.
	for i := range good {
		mut := append([]byte{}, good...)
		mut[i] ^= 1 << (i % 8)
		if _, err := decodeSnapshot(mut); err == nil {
			t.Fatalf("decode accepted a bit flip at byte %d", i)
		}
	}

	// The same classes through the full NewCollector restore path, on a
	// sample (a fresh collector per case keeps the sweep affordable).
	dir := t.TempDir()
	path := filepath.Join(dir, snapshotFile)
	writeCase := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{0, 1, 3, len(good) / 2, len(good) - 5, len(good) - 1} {
		writeCase(good[:n])
		assertEmptyRestore(t, dir)
	}
	for _, i := range []int{0, 2, 7, len(good) / 3, len(good) / 2, len(good) - 1} {
		mut := append([]byte{}, good...)
		mut[i] ^= 0x10
		writeCase(mut)
		assertEmptyRestore(t, dir)
	}

	// A snapshot whose CRC is VALID but whose last entry fails
	// re-validation must also be abandoned whole: the all-or-nothing
	// staging, not just the checksum, guards the table. Built by hand —
	// one good entry followed by one with an undecodable payload, CRC
	// recomputed over the forged body.
	cfg := StreamConfig{Stat: "f0", P: 0.5, Seed: 7}
	goodEntry, err := json.Marshal(f0Summary("a", "flows", cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	badEntry, err := json.Marshal(Summary{Agent: "b", Stream: "flows", Seq: 1,
		Config: cfg, Payload: []byte{0xff, 0x01}})
	if err != nil {
		t.Fatal(err)
	}
	forged := forgeSnapshot([][]byte{goodEntry, badEntry})
	writeCase(forged)
	assertEmptyRestore(t, dir)
}

// forgeSnapshot hand-builds a snapshot file with a VALID CRC around the
// given JSON rows, so what a restore makes of it is decided by the rows'
// admission alone.
func forgeSnapshot(rows [][]byte) []byte {
	w := &wire.Writer{}
	w.U8(snapshotMagic0)
	w.U8(snapshotMagic1)
	w.U8(snapshotVersion)
	w.I64(time.Now().UnixNano())
	w.U32(uint32(len(rows)))
	for _, row := range rows {
		w.Nested(row)
		w.I64(time.Now().UnixNano())
	}
	forged := w.Bytes()
	return binary.LittleEndian.AppendUint32(forged, crc32.ChecksumIEEE(forged))
}

// asWireV2 relabels a payload as wire format v2, the way a summary from
// an agent that was not upgraded with its collector arrives.
func asWireV2(payload []byte) []byte {
	old := append([]byte(nil), payload...)
	old[1] = 2
	return old
}

// TestRestoreDiscardsWireV2Snapshot boots a collector over a well-formed
// snapshot (valid CRC, valid rows) left by a collector that still wrote
// wire format v2: it starts empty with the warning, leaves the directory
// as it found it, and admits the first v3 ship of the upgraded fleet.
func TestRestoreDiscardsWireV2Snapshot(t *testing.T) {
	cfg := StreamConfig{Stat: "f0", P: 0.5, Seed: 7}
	var rows [][]byte
	for _, agent := range []string{"a", "b"} {
		sum := f0Summary(agent, "flows", cfg, 1)
		sum.Payload = asWireV2(sum.Payload)
		row, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	dir := t.TempDir()
	files := map[string][]byte{snapshotFile: forgeSnapshot(rows), "operator-notes.txt": []byte("keep me")}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var logs bytes.Buffer
	c := NewCollector(CollectorConfig{SnapshotDir: dir, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if n := c.Metrics().SnapshotErrors.With(causeSnapshotRestore).Value(); n != 1 {
		t.Fatalf("snapshot_errors{snapshot_restore} = %d, want 1", n)
	}
	if !strings.Contains(logs.String(), "starting empty") || !strings.Contains(logs.String(), "unsupported version 2") {
		t.Fatalf("no start-empty warning naming the version: %q", logs.String())
	}
	if _, err := c.Estimate("flows"); err == nil {
		t.Fatal("a v2 row reached the table")
	}
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed by a refused restore (err %v)", name, err)
		}
	}
	if err := c.Accept(f0Summary("a", "flows", cfg, 2)); err != nil {
		t.Fatalf("v3 ship after the discarded snapshot: %v", err)
	}
	if est, err := c.Estimate("flows"); err != nil || est.Agents != 1 {
		t.Fatalf("after the v3 ship: %+v, %v", est, err)
	}
}

// TestAdmissionParity drives one table of rows through both doors into
// the retained table, each time behind one good row. For a bad row the
// live door (POST /v1/collect) must reject it with its audited
// summaries_rejected cause and keep the good row, and a valid-CRC
// snapshot carrying the same two rows must be abandoned whole. A row
// whose envelope shape json accepts must be admitted at both doors.
func TestAdmissionParity(t *testing.T) {
	cfg := StreamConfig{Stat: "f0", P: 0.5, Seed: 7}
	good := f0Summary("a", "flows", cfg, 1)
	with := func(edit func(*Summary)) Summary {
		sum := f0Summary("b", "flows", cfg, 1)
		edit(&sum)
		return sum
	}
	foreign := cfg
	foreign.Seed = 8
	hh := core.NewF1HeavyHitters(core.F1HHConfig{P: 0.5, Alpha: 0.05, Epsilon: 0.2}, rng.New(7))
	hhPayload, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// okRow's state is fed until its payload's base64 holds some '/'s,
	// which the envelope shapes below escape.
	okRow, _ := json.Marshal(with(func(s *Summary) {
		e := core.NewF0Estimator(core.F0Config{P: cfg.P}, rng.New(cfg.Seed))
		for i := range 64 {
			e.Observe(stream.Item(i + 1))
		}
		s.Payload, _ = e.MarshalBinary()
	}))
	type admissionCase struct {
		name  string
		sum   Summary
		cause string // "" = admitted at both doors
		// raw, when set, is the row as it arrives in place of sum's JSON:
		// a shape of the envelope bytes that no Summary value can carry.
		raw []byte
	}
	cases := []admissionCase{
		{name: "empty stream", sum: with(func(s *Summary) { s.Stream = "" }), cause: causeConfig},
		{name: "empty agent", sum: with(func(s *Summary) { s.Agent = "" }), cause: causeConfig},
		{name: "invalid config", sum: with(func(s *Summary) { s.Config.P = 42 }), cause: causeConfig},
		{name: "undecodable payload", sum: with(func(s *Summary) { s.Payload = []byte{0xff, 0x01} }), cause: causePayload},
		{name: "wire format v2 payload", sum: with(func(s *Summary) { s.Payload = asWireV2(s.Payload) }), cause: causePayload},
		{name: "payload kind is not the declared stat", sum: with(func(s *Summary) { s.Payload = hhPayload }), cause: causePayload},
		{name: "foreign seed", sum: with(func(s *Summary) { s.Payload = f0Summary("b", "flows", foreign, 1).Payload }), cause: causePayload},
		// Self-consistent under its own config, which is not the one the
		// earlier row pinned the stream to.
		{name: "config conflicts with an earlier row", sum: f0Summary("b", "flows", foreign, 1), cause: causeConflict},
		{name: "bytes after a valid envelope", raw: append(okRow, `{"x":1} trailing garbage ###`...), cause: causeEnvelope},
	}
	// The envelope shapes whose reading encoding/json decides: each gets
	// json's verdict at both doors — the row admitted beside the good
	// one, or refused as an envelope defect.
	for _, s := range envelopeShapes(t, okRow) {
		row := admissionCase{name: s.name, raw: s.raw, cause: causeEnvelope}
		if s.ok {
			row.cause = ""
		}
		cases = append(cases, row)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			goodRow, _ := json.Marshal(good)
			badRow := tc.raw
			if badRow == nil {
				badRow, _ = json.Marshal(tc.sum)
			}

			live := NewCollector(CollectorConfig{})
			cts := httptest.NewServer(live.Handler())
			defer cts.Close()
			if resp := do(t, http.MethodPost, cts.URL+"/v1/collect", "application/json", goodRow, nil); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("good row: status %d", resp.StatusCode)
			}
			before := causeValues(live.Metrics().CollectRejects, collectCauses)
			resp := do(t, http.MethodPost, cts.URL+"/v1/collect", "application/json", badRow, nil)
			assertCauseDelta(t, before, causeValues(live.Metrics().CollectRejects, collectCauses), tc.cause)
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), forgeSnapshot([][]byte{goodRow, badRow}), 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.cause == "" {
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("live door: status %d, want 202", resp.StatusCode)
				}
				restored := NewCollector(CollectorConfig{SnapshotDir: dir})
				if n := restored.Metrics().SnapshotErrors.With(causeSnapshotRestore).Value(); n != 0 {
					t.Fatalf("snapshot door refused the row: snapshot_errors{snapshot_restore} = %d", n)
				}
				want := estimateAll(t, live, "flows")
				if got := estimateAll(t, restored, "flows"); want["flows"].Agents != 2 || !reflect.DeepEqual(got, want) {
					t.Fatalf("the doors disagree: live %+v, snapshot %+v", want, got)
				}
				return
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("live door: status %d, want 400", resp.StatusCode)
			}
			if tc.raw == nil {
				if err := live.Accept(tc.sum); err == nil {
					t.Fatal("Accept admitted the row the HTTP door rejected")
				}
			}
			if est, err := live.Estimate("flows"); err != nil || est.Agents != 1 {
				t.Fatalf("live door let the rejected row touch the table: %+v, %v", est, err)
			}
			assertEmptyRestore(t, dir)
		})
	}
}

// TestSnapshotRunWritesPeriodically drives Collector.Run with a short
// interval and checks checkpoints land, including the final shutdown
// write.
func TestSnapshotRunWritesPeriodically(t *testing.T) {
	dir := t.TempDir()
	c := NewCollector(CollectorConfig{SnapshotDir: dir, SnapshotInterval: 5 * time.Millisecond})
	acceptWorkload(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()

	path := filepath.Join(dir, snapshotFile)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no periodic snapshot appeared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("final shutdown snapshot: %v", err)
	}
	// The shutdown write left a restorable checkpoint.
	c2 := NewCollector(CollectorConfig{SnapshotDir: dir})
	if !reflect.DeepEqual(estimateAll(t, c2, "flows", "bytes"), estimateAll(t, c, "flows", "bytes")) {
		t.Fatal("restored estimates diverge from the live collector's")
	}
}

// parkedEstimator is a retained state whose MarshalBinary parks until
// released, standing in for a slow (multi-megabyte) snapshot encode.
type parkedEstimator struct {
	estimator.Estimator
	entered, release chan struct{}
}

func (p *parkedEstimator) MarshalBinary() ([]byte, error) {
	close(p.entered)
	<-p.release
	return p.Estimator.MarshalBinary()
}

// TestSnapshotEncodeDoesNotHoldTableLock pins the checkpoint's locking:
// with an encode parked mid-marshal, Accept (a writer) and an Estimate
// arriving after it (a reader queued behind that writer under RWMutex
// writer preference) must both complete — the table lock covers the row
// copy only.
func TestSnapshotEncodeDoesNotHoldTableLock(t *testing.T) {
	c := NewCollector(CollectorConfig{SnapshotDir: t.TempDir()})
	acceptWorkload(t, c)
	c.mu.Lock()
	state := c.streams["flows"].agents["a"]
	parked := &parkedEstimator{Estimator: state.decoded, entered: make(chan struct{}), release: make(chan struct{})}
	state.decoded = parked
	c.streams["flows"].agents["a"] = state
	c.mu.Unlock()

	saved := make(chan error, 1)
	go func() { saved <- c.SaveSnapshot() }()
	<-parked.entered

	done := make(chan error, 1)
	go func() {
		if err := c.Accept(f0Summary("c", "bytes", StreamConfig{Stat: "f0", P: 0.5, Seed: 7}, 1)); err != nil {
			done <- err
			return
		}
		_, err := c.Estimate("bytes")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Accept/Estimate blocked behind a parked snapshot encode")
	}
	close(parked.release)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	// The checkpoint is the table as of the row copy: 4 entries, without
	// the agent accepted while the encode was parked.
	c2 := NewCollector(CollectorConfig{SnapshotDir: c.cfg.SnapshotDir})
	if got := estimateAll(t, c2, "bytes")["bytes"].Agents; got != 2 {
		t.Fatalf("restored %d agents of stream bytes, want 2", got)
	}
}

// TestRunnerSnapshotMarshalsOutsideStreamLock pins the agent-side twin of
// the rule above: with a flush parked mid-marshal, an ingest feed on the
// same stream must still return — the stream lock covers the quiesce and
// the fold, not the serialization of the fold's private accumulator.
func TestRunnerSnapshotMarshalsOutsideStreamLock(t *testing.T) {
	run, err := buildRunner(StreamConfig{Stat: "f0", P: 1, Presampled: true, Shards: 1}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer run.close()
	feed := func(it stream.Item) {
		run.feed(nil, nil, func(pl *pipe) { pl.FeedCopy([]stream.Item{it}) })
	}
	feed(1)
	parked := &parkedEstimator{entered: make(chan struct{}), release: make(chan struct{})}
	inner := run.newEst
	run.newEst = func() (estimator.Estimator, error) {
		var err error
		parked.Estimator, err = inner()
		return parked, err
	}
	snapped := make(chan error, 1)
	go func() {
		_, err := run.snapshot()
		snapped <- err
	}()
	<-parked.entered
	fed := make(chan struct{})
	go func() {
		feed(2)
		close(fed)
	}()
	select {
	case <-fed:
	case <-time.After(2 * time.Second):
		t.Error("feed is blocked behind a snapshot's marshal")
	}
	close(parked.release)
	if err := <-snapped; err != nil {
		t.Fatal(err)
	}
}

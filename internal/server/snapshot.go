package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"time"

	"substream/internal/wire"
)

// Collector durability snapshots: a periodic atomic checkpoint of the
// per-(stream, agent) summary table, restored on startup so a collector
// restart does not forget the fleet's last shipped state. The format
// rides the repository's wire conventions (internal/server/doc.go):
//
//	'C' 'S'            magic
//	u8  version        snapshotVersion
//	i64 savedAt        unix-nanos of the checkpoint (diagnostic)
//	u32 count          number of (stream, agent) entries
//	count times:
//	  nested summaryJSON   the retained Summary, Payload re-encoded from
//	                       the decoded estimator (tagged estimator wire
//	                       format, decodable by estimator.Decode)
//	  i64 lastSeen         unix-nanos of the entry's acceptance (diagnostic)
//	u32 crc            IEEE CRC-32 of every preceding byte, little-endian
//
// The CRC trailer is verified BEFORE any parsing, so truncations and bit
// flips — including content-preserving ones structural validation cannot
// see — always fail cleanly into the "start empty + warn" path; a
// snapshot is restored whole or not at all, never as a partial table.
const (
	snapshotMagic0  byte = 'C'
	snapshotMagic1  byte = 'S'
	snapshotVersion byte = 1
	// snapshotFile is the checkpoint's name inside SnapshotDir.
	snapshotFile = "collector.snap"
	// snapshotTmp prefixes the temp files SaveSnapshot renames into place.
	snapshotTmp = snapshotFile + ".tmp-"
	// maxSnapshotEntries bounds the entry count read from the wire.
	maxSnapshotEntries = 1 << 20
)

// snapshotPath returns the checkpoint's location for the configured dir.
func (c *Collector) snapshotPath() string {
	return filepath.Join(c.cfg.SnapshotDir, snapshotFile)
}

// snapEntry is one decoded snapshot row.
type snapEntry struct {
	sum      Summary
	lastSeen time.Time
}

// encodeSnapshot serializes the retained table in sorted (stream, agent)
// order so identical tables encode identically. Only the row copy runs
// under the read lock; the marshal + JSON work happens outside it
// (retained estimators are never mutated), so a checkpoint never stalls
// Accept — nor, through RWMutex writer preference, every Estimate
// queued behind that Accept.
func (c *Collector) encodeSnapshot(now time.Time) ([]byte, error) {
	type row struct {
		stream, agent string
		state         agentState
	}
	c.mu.RLock()
	var rows []row
	for _, name := range sortedKeys(c.streams) {
		st := c.streams[name]
		for _, id := range sortedKeys(st.agents) {
			rows = append(rows, row{name, id, st.agents[id]})
		}
	}
	c.mu.RUnlock()

	w := &wire.Writer{}
	w.U8(snapshotMagic0)
	w.U8(snapshotMagic1)
	w.U8(snapshotVersion)
	w.I64(now.UnixNano())
	w.U32(uint32(len(rows)))
	for _, r := range rows {
		payload, err := r.state.decoded.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("stream %q agent %q: %w", r.stream, r.agent, err)
		}
		sum := r.state.sum
		sum.Payload = payload
		js, err := json.Marshal(sum)
		if err != nil {
			return nil, fmt.Errorf("stream %q agent %q: %w", r.stream, r.agent, err)
		}
		w.Nested(js)
		w.I64(r.state.lastSeen.UnixNano())
	}
	buf := w.Bytes()
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// decodeSnapshot verifies the CRC trailer and parses the entry list.
func decodeSnapshot(data []byte) ([]snapEntry, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("snapshot: %d bytes is shorter than the CRC trailer", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("snapshot: CRC mismatch (file %#x, computed %#x)", want, got)
	}
	r := wire.NewReader(body)
	if m0, m1 := r.U8(), r.U8(); r.Err() == nil && (m0 != snapshotMagic0 || m1 != snapshotMagic1) {
		return nil, fmt.Errorf("snapshot: bad magic %#x %#x", m0, m1)
	}
	if v := r.U8(); r.Err() == nil && v != snapshotVersion {
		return nil, fmt.Errorf("snapshot: unsupported version %d", v)
	}
	r.I64() // savedAt: diagnostic only
	count := r.Count(maxSnapshotEntries, 4)
	if err := r.Err(); err != nil {
		return nil, err
	}
	out := make([]snapEntry, 0, count)
	for i := 0; i < count; i++ {
		js := r.Nested()
		lastSeen := r.I64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		sum, err := decodeSummary(js)
		if err != nil {
			return nil, fmt.Errorf("snapshot entry %d: %w", i, err)
		}
		out = append(out, snapEntry{sum: sum, lastSeen: time.Unix(0, lastSeen)})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// SaveSnapshot atomically checkpoints the retained table to SnapshotDir:
// encode, write to a temp file, fsync, rename. A crash at any point
// leaves either the previous complete snapshot or the new one, never a
// torn file. Failures bump snapshot_errors{cause="snapshot_write"}.
func (c *Collector) SaveSnapshot() error {
	if c.cfg.SnapshotDir == "" {
		return fmt.Errorf("snapshot: no snapshot dir configured")
	}
	start := time.Now()
	err := func() error {
		data, err := c.encodeSnapshot(start)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(c.cfg.SnapshotDir, 0o755); err != nil {
			return err
		}
		path := c.snapshotPath()
		tmp, err := os.CreateTemp(c.cfg.SnapshotDir, snapshotTmp+"*")
		if err != nil {
			return err
		}
		defer os.Remove(tmp.Name()) // no-op after a successful rename
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmp.Name(), path); err != nil {
			return err
		}
		c.metrics.SnapshotBytes.Set(float64(len(data)))
		return nil
	}()
	if err != nil {
		c.metrics.SnapshotErrors.With(causeSnapshotWrite).Inc()
		return err
	}
	c.metrics.SnapshotWrite.Since(start)
	return nil
}

// removeOrphanTemps deletes the temp files a kill between SaveSnapshot's
// CreateTemp and Rename left in SnapshotDir — its deferred Remove covers
// only in-process failures, so each such crash would otherwise leak one
// snapshot's worth of disk for good. NewCollector calls it, not the
// exported RestoreSnapshot: at construction nothing in the process can be
// mid-SaveSnapshot, so every match is an orphan.
func (c *Collector) removeOrphanTemps() {
	entries, _ := os.ReadDir(c.cfg.SnapshotDir) // missing dir: a clean first boot, nothing to remove
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), snapshotTmp) {
			continue
		}
		path := filepath.Join(c.cfg.SnapshotDir, e.Name())
		if err := os.Remove(path); err != nil {
			c.logger.Warn("orphaned snapshot temp file not removed", "path", path, "err", err)
		}
	}
}

// RestoreSnapshot loads the checkpoint from SnapshotDir and replaces the
// retained table with it, all-or-nothing: every entry passes the same
// admission door as a live shipment (admit), and ANY failure abandons
// the whole restore with the table untouched (the collector starts
// empty and the agents' cumulative reships rebuild it).
// A missing file is a clean first boot, not an error. Restored entries'
// staleness clocks restart at the restore: the restore counts as a
// sighting, so a collector that was down longer than -max-summary-age
// answers queries from the restored state while the fleet re-converges,
// instead of declaring everything stale at once.
func (c *Collector) RestoreSnapshot() (int, error) {
	if c.cfg.SnapshotDir == "" {
		return 0, fmt.Errorf("snapshot: no snapshot dir configured")
	}
	data, err := os.ReadFile(c.snapshotPath())
	if os.IsNotExist(err) {
		return 0, nil
	}
	start := time.Now()
	n, err := func() (int, error) {
		if err != nil {
			return 0, err
		}
		entries, err := decodeSnapshot(data)
		if err != nil {
			return 0, err
		}
		now := c.cfg.Now()
		staging := make(map[string]*collectorStream)
		for i, e := range entries {
			if err := c.restoreRow(staging, e.sum, now); err != nil {
				return 0, fmt.Errorf("snapshot entry %d: %w", i, err)
			}
		}
		c.mu.Lock()
		c.streams = staging
		c.mu.Unlock()
		return len(entries), nil
	}()
	if err != nil {
		c.metrics.SnapshotErrors.With(causeSnapshotRestore).Inc()
		return 0, err
	}
	c.metrics.SnapshotRestore.Since(start)
	return n, nil
}

// restoreRow passes one snapshot row through the admission door into the
// staging table. The restore door's ordering rule: the encoder writes each
// (stream, agent) pair once, so a duplicate row is corruption.
func (c *Collector) restoreRow(staging map[string]*collectorStream, sum Summary, lastSeen time.Time) error {
	adm, _, err := c.admit(sum)
	if err != nil {
		return err
	}
	st, err := adm.adopt(staging)
	if err != nil {
		return err
	}
	if _, dup := st.agents[sum.Agent]; dup {
		return fmt.Errorf("stream %q: duplicate agent %q", sum.Stream, sum.Agent)
	}
	adm.state.lastSeen = lastSeen
	st.agents[sum.Agent] = adm.state
	return nil
}

// Run drives the collector's periodic durability checkpoints until ctx
// is canceled, then writes one final snapshot — the graceful-shutdown
// path that makes a planned restart lossless even mid-interval. Without
// a snapshot dir it just blocks until cancellation.
func (c *Collector) Run(ctx context.Context) error {
	if c.cfg.SnapshotDir == "" {
		<-ctx.Done()
		return nil
	}
	ticker := time.NewTicker(c.cfg.SnapshotInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := c.SaveSnapshot(); err != nil {
				c.logger.Warn("snapshot write failed", "err", err)
			}
		case <-ctx.Done():
			return c.SaveSnapshot()
		}
	}
}

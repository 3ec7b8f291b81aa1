package server

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/http"

	"substream/internal/stream"
)

// Subset-sum queries are the daemon-level rendering of the weighted
// item model's Horvitz–Thompson estimator: "how much weight (bytes,
// cost, latency budget) did keys matching a predicate carry?" The HTTP
// surface expresses the predicate as an IPv4 CIDR prefix under the
// netflow key convention — the address in the key's low 32 bits — so a
// collector can be asked for "bytes from 10.0.0.0/8 across the fleet"
// without shipping code.

// subsetPred compiles an IPv4 CIDR prefix into the item predicate of a
// subset-sum query. Keys carry the IPv4 address in their low 32 bits
// (higher bits are free for ports or protocol tags and are masked off),
// so a prefix matches the contiguous key range [network, broadcast].
func subsetPred(prefix string) (func(stream.Item) bool, error) {
	_, ipnet, err := net.ParseCIDR(prefix)
	if err != nil {
		return nil, fmt.Errorf("bad prefix: %v", err)
	}
	ip4 := ipnet.IP.To4()
	ones, bits := ipnet.Mask.Size()
	if ip4 == nil || bits != 32 {
		return nil, fmt.Errorf("prefix %q is not IPv4", prefix)
	}
	base := uint64(binary.BigEndian.Uint32(ip4))
	hi := base | (uint64(1)<<uint(32-ones) - 1)
	return func(it stream.Item) bool {
		v := uint64(it) & 0xffff_ffff
		return v >= base && v <= hi
	}, nil
}

// subsetQuery parses the shared query parameters of the subset-sum
// endpoints into the query they ask: prefix (required, IPv4 CIDR) and
// scope (cumulative — the default — or window).
func subsetQuery(r *http.Request) (q query, prefix, scope string, err error) {
	params := r.URL.Query()
	prefix = params.Get("prefix")
	if prefix == "" {
		return q, "", "", fmt.Errorf("subsetsum needs a prefix parameter (IPv4 CIDR, e.g. 10.0.0.0/8)")
	}
	if q.pred, err = subsetPred(prefix); err != nil {
		return q, "", "", err
	}
	switch scope = params.Get("scope"); scope {
	case "":
		scope = "cumulative"
	case "cumulative":
	case "window":
		q.windowScope = true
	default:
		return q, "", "", fmt.Errorf("unknown scope %q (want cumulative or window)", scope)
	}
	return q, prefix, scope, nil
}

// handleSubsetSum answers a subset-sum query from the agent's local
// shard replicas — the single-monitor view of the weight matching the
// prefix.
func (a *Agent) handleSubsetSum(w http.ResponseWriter, r *http.Request) {
	st, ok := a.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("name"))
		return
	}
	q, prefix, scope, err := subsetQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ans, _, _, err := st.run.answer(a.metrics, q)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "subset sum failed: %v", err)
		return
	}
	if !ans.ok {
		writeError(w, http.StatusBadRequest,
			"stream %q (stat %q) answers no subset sums in scope %q", st.name, st.cfg.Stat, scope)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"stream": st.name, "prefix": prefix, "scope": scope, "subset_sum": ans.sum,
	})
}

// SubsetSumResult is the collector's answer to one subset-sum query.
type SubsetSumResult struct {
	Value float64
	// OK is false when the stream's stat (or the requested scope) has no
	// subset-sum capability.
	OK      bool
	Agents  int
	Skipped int
}

// SubsetSum folds the latest summary of every fresh agent of the stream
// and answers the subset-sum query against the fold — the fleet-wide
// weight matching the predicate (non-nil), with Estimate's staleness
// rules.
func (c *Collector) SubsetSum(name string, pred func(stream.Item) bool, windowScope bool) (SubsetSumResult, error) {
	ans, f, err := c.query(name, query{pred: pred, windowScope: windowScope})
	return SubsetSumResult{Value: ans.sum, OK: ans.ok, Agents: f.agents, Skipped: f.skipped}, err
}

// handleSubsetSum answers GET /v1/subsetsum?stream=...&prefix=... at
// the collector.
func (c *Collector) handleSubsetSum(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("stream")
	if name == "" {
		writeError(w, http.StatusBadRequest, "subsetsum needs a stream parameter")
		return
	}
	q, prefix, scope, err := subsetQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ans, f, err := c.query(name, q)
	if err != nil {
		writeError(w, f.errStatus(), "%v", err)
		return
	}
	if !ans.ok {
		writeError(w, http.StatusBadRequest,
			"stream %q answers no subset sums in scope %q", name, scope)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"stream": name, "prefix": prefix, "scope": scope,
		"agents": f.agents, "skipped_stale": f.skipped, "subset_sum": ans.sum,
	})
}

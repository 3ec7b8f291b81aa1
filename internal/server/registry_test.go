package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"substream/internal/estimator"
	"substream/internal/rng"
	"substream/internal/sketch"
)

// TestRegistryMatchesWireTable pins the estimator registry — the single
// source of tag assignments — to the wire-format table documented in
// doc.go: the ten kinds that answer about P. Editing either side without
// the other fails here, keeping the operator documentation honest. The
// component tags below 0x20 are no registry kinds: their parents decode
// them.
func TestRegistryMatchesWireTable(t *testing.T) {
	want := []struct {
		tag  byte
		name string
	}{
		// internal/core: 0x20–0x2f
		{0x20, "fk"}, {0x21, "f0"}, {0x22, "entropy"}, {0x23, "hh1"},
		{0x24, "hh2"}, {0x25, "all"}, {0x26, "gee"},
		// internal/window: 0x30–0x3f
		{0x30, "window"},
		// internal/quantile: 0x40–0x4f
		{0x40, "quantile"},
		// internal/sample: 0x50–0x5f
		{0x50, "varopt"},
	}
	kinds := estimator.Kinds()
	if len(kinds) != len(want) {
		t.Fatalf("registry holds %d kinds, doc.go table lists %d", len(kinds), len(want))
	}
	for i, w := range want {
		if kinds[i].Tag != w.tag || kinds[i].Name != w.name {
			t.Errorf("registry[%d] = (%#x, %q), doc.go table says (%#x, %q)",
				i, kinds[i].Tag, kinds[i].Name, w.tag, w.name)
		}
	}
	// Package range ownership from doc.go.
	for _, k := range kinds {
		var lo, hi byte
		switch {
		case k.Tag <= 0x2f:
			lo, hi = 0x20, 0x2f
		case k.Tag <= 0x3f:
			lo, hi = 0x30, 0x3f
		case k.Tag <= 0x4f:
			lo, hi = 0x40, 0x4f
		default:
			lo, hi = 0x50, 0x5f
		}
		if k.Tag < lo || k.Tag > hi {
			t.Errorf("kind %q tag %#x escapes its package range [%#x, %#x]", k.Name, k.Tag, lo, hi)
		}
	}
}

// TestValidateAcceptsEveryRegisteredStat proves stream configuration is
// registry-driven: every constructible kind is a legal stat with the
// stock defaults, with no server-side enumeration to update.
func TestValidateAcceptsEveryRegisteredStat(t *testing.T) {
	for _, stat := range estimator.Stats() {
		cfg := StreamConfig{Stat: stat, P: 0.5}.withDefaults()
		if err := cfg.validate(); err != nil {
			t.Errorf("stat %q rejected: %v", stat, err)
		}
		run, err := buildRunner(cfg)
		if err != nil {
			t.Errorf("stat %q: buildRunner: %v", stat, err)
			continue
		}
		run.close()
	}
	if err := (StreamConfig{Stat: "bogus", P: 0.5}.withDefaults()).validate(); err == nil {
		t.Error("unregistered stat accepted")
	}
}

// componentStats are the names the registry held before it served only
// the kinds that answer about P: the components those kinds nest.
var componentStats = []string{"countmin", "countsketch", "kmv", "hll", "spacesaving", "misragries", "topk", "exactcounter", "levelset", "iw"}

// nineStats is how a refusal lists the stats a stream may declare.
const nineStats = "all | entropy | f0 | fk | gee | hh1 | hh2 | quantile | varopt"

// TestComponentStatsRefused pins both doors a declaration comes in by to
// the registry's stats. PUT /v1/streams/{name} refuses each component
// with a 400 that lists the nine stats, and "window" with one that says
// how a window is declared. At the collector a summary declaring a
// component is a config reject, and a component's own payload under an
// f0 config a payload reject: components ride only inside their parents.
func TestComponentStatsRefused(t *testing.T) {
	agent := NewAgent(AgentConfig{ID: "components"})
	defer agent.Close()
	put := func(stat string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		agent.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/streams/s",
			strings.NewReader(fmt.Sprintf(`{"stat": %q, "p": 0.05}`, stat))))
		return rec
	}
	for _, stat := range componentStats {
		if rec := put(stat); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), nineStats) {
			t.Errorf("PUT stat %s: %d %s, want 400 listing %s", stat, rec.Code, rec.Body, nineStats)
		}
	}
	if rec := put("window"); rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "window and epoch fields") || !strings.Contains(rec.Body.String(), nineStats) {
		t.Errorf("PUT stat window: %d %s, want 400 naming the window and epoch fields", rec.Code, rec.Body)
	}

	collector := NewCollector(CollectorConfig{})
	cts := httptest.NewServer(collector.Handler())
	defer cts.Close()
	rejects := collector.Metrics().CollectRejects
	post := func(sum Summary) {
		t.Helper()
		body, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		before := causeValues(rejects, collectCauses)
		resp, err := http.Post(cts.URL+"/v1/collect", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("summary declaring %q: status %d, want 400", sum.Config.Stat, resp.StatusCode)
		}
		cause := causePayload
		if sum.Config.Stat != "f0" {
			cause = causeConfig
		}
		assertCauseDelta(t, before, causeValues(rejects, collectCauses), cause)
	}
	countmin, err := sketch.NewCountMin(64, 3, rng.New(1)).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, stat := range componentStats {
		post(Summary{Agent: "a", Stream: stat, Seq: 1, Config: StreamConfig{Stat: stat, P: 0.5, Seed: 1}, Payload: countmin})
	}
	post(Summary{Agent: "a", Stream: "f0", Seq: 1, Config: StreamConfig{Stat: "f0", P: 0.5, Seed: 1}, Payload: countmin})
}

// TestServerDefaultsAreTheRegistrys: the estimator defaults are spelled
// once, in estimator.Spec.WithDefaults; the daemon's copy is a call to it.
func TestServerDefaultsAreTheRegistrys(t *testing.T) {
	var cfg StreamConfig
	if got, want := cfg.withDefaults().spec(), cfg.spec().WithDefaults(); got != want {
		t.Fatalf("server defaults %+v, registry defaults %+v", got, want)
	}
}

// TestStreamConfigDecodeIsStrict drives both doors a stream declaration
// comes in by — PUT /v1/streams/{name} and the -streams document, a map of
// name → config — with the same bodies: a misspelt field or anything after
// the JSON value is refused with the offending key in the message, and a
// config with every field set (the shape json.Marshal(StreamConfig) sends)
// is accepted unchanged.
func TestStreamConfigDecodeIsStrict(t *testing.T) {
	full := StreamConfig{
		Stat: "fk", P: 0.5, K: 3, Epsilon: 0.1, Alpha: 0.1, Budget: 512, Exact: true, Seed: 7,
		Shards: 1, Batch: 64, Presampled: true, SampleSeed: 9, Window: 2, Epoch: Duration(time.Second),
	}
	fullBody, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(fullBody, &keys); err != nil {
		t.Fatal(err)
	}
	if n := reflect.TypeOf(full).NumField(); len(keys) != n {
		t.Fatalf("the every-field case sets %d of StreamConfig's %d fields: extend it", len(keys), n)
	}

	agent := NewAgent(AgentConfig{ID: "strict"})
	defer agent.Close()
	for i, tc := range []struct {
		name, cfg, trailer string
		wantErr            string // "" = accepted
	}{
		{"eps misspelt", `{"stat":"fk","p":0.05,"epsilon":0.05}`, "", "epsilon"},
		{"presampled misspelt", `{"stat":"f0","p":0.05,"presample":true}`, "", "presample"},
		{"trailing garbage", `{"stat":"f0","p":0.05}`, " x", "trailing"},
		{"second value", `{"stat":"f0","p":0.05}`, `{"stat":"fk"}`, "trailing"},
		{"every field", string(fullBody), "\n", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			agent.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut,
				fmt.Sprintf("/v1/streams/s%d", i), strings.NewReader(tc.cfg+tc.trailer)))
			var doc map[string]StreamConfig
			docErr := DecodeConfig(strings.NewReader(`{"s": `+tc.cfg+`}`+tc.trailer), &doc)
			if tc.wantErr == "" {
				if rec.Code != http.StatusCreated {
					t.Errorf("route: %d %s, want 201", rec.Code, rec.Body)
				}
				if docErr != nil || doc["s"] != full {
					t.Errorf("-streams document: %+v, err %v", doc["s"], docErr)
				}
				return
			}
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.wantErr) {
				t.Errorf("route: %d %s, want 400 naming %s", rec.Code, rec.Body, tc.wantErr)
			}
			if docErr == nil || !strings.Contains(docErr.Error(), tc.wantErr) {
				t.Errorf("-streams document: err %v, want one naming %s", docErr, tc.wantErr)
			}
		})
	}
}

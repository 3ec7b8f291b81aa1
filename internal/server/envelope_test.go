package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"substream/internal/estimator"
	"substream/internal/stream"
)

// kindEnvelopes returns one json.Marshal'ed agent envelope per registry
// kind — the nine stats and a window ring around f0 — with every
// envelope field set.
func kindEnvelopes(tb testing.TB) map[string][]byte {
	tb.Helper()
	cfgs := map[string]StreamConfig{"window": {Stat: "f0", P: 0.5, Seed: 7, Window: 2}}
	for _, stat := range estimator.Stats() {
		cfgs[stat] = StreamConfig{Stat: stat, P: 0.5, Seed: 7}
	}
	items := make([]stream.Item, 64)
	for i := range items {
		items[i] = stream.Item(i%23 + 1)
	}
	out := make(map[string][]byte, len(cfgs))
	for name, cfg := range cfgs {
		cfg = cfg.withDefaults()
		e, err := cfg.newEstimator()()
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		e.UpdateBatch(items)
		payload, err := e.MarshalBinary()
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		js, err := json.Marshal(Summary{
			Agent: "a", Stream: name, Boot: 3, Seq: 9, Config: cfg, Fed: 128, Kept: 64,
			Epoch: 2, TraceID: 77, FlushedAt: time.Unix(1_700_000_000, 5), Payload: payload,
		})
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out[name] = js
	}
	return out
}

// envelopeShape is one rewriting of a marshaled envelope that the
// envelope reader must read as encoding/json does.
type envelopeShape struct {
	name string
	raw  []byte
	ok   bool // json.Unmarshal accepts it, with the envelope's own payload
}

// envelopeShapes rewrites js, a json.Marshal'ed Summary (which writes
// "payload" last), into the member orders, duplicates, case variants,
// escapes and raw control bytes whose reading json decides. Each shape
// json accepts decodes to the original Summary.
func envelopeShapes(tb testing.TB, js []byte) []envelopeShape {
	tb.Helper()
	at := bytes.LastIndex(js, []byte(`,"payload":"`))
	if at < 0 || !bytes.HasSuffix(js, []byte(`"}`)) {
		tb.Fatalf("envelope does not end in its payload: %.80s", js)
	}
	head, p64 := string(js[:at]), string(js[at+len(`,"payload":"`):len(js)-2])
	streamAt := bytes.Index(js, []byte(`,"stream":`))
	configAt := bytes.Index(js, []byte(`"config":{`)) + len(`"config":{`)
	slash := bytes.ReplaceAll([]byte(p64), []byte("/"), []byte(`\/`))
	if !bytes.Contains(slash, []byte(`\/`)) {
		tb.Fatalf("payload base64 holds no '/' to escape: %.80s", p64)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, js, "", "\t"); err != nil {
		tb.Fatal(err)
	}
	mid := len(p64) / 2
	return []envelopeShape{
		{"payload first", []byte(`{"payload":"` + p64 + `",` + head[1:] + `}`), true},
		{"payload in the middle", []byte(string(js[:streamAt]) + `,"payload":"` + p64 + `"` + head[streamAt:] + `}`), true},
		{"indented", indented.Bytes(), true},
		{"duplicate payload, the last wins", []byte(head + `,"payload":"AAAA","payload":"` + p64 + `"}`), true},
		{"duplicate payload, an earlier one undecodable", []byte(head + `,"payload":"!!!!","payload":"` + p64 + `"}`), false},
		{"case-variant Payload after payload", []byte(head + `,"payload":"AAAA","Payload":"` + p64 + `"}`), true},
		{"case-variant PAYLOAD before payload", []byte(head + `,"PAYLOAD":"AAAA","payload":"` + p64 + `"}`), true},
		{"escaped key after payload", []byte(head + `,"payload":"AAAA","p\u0061yload":"` + p64 + `"}`), true},
		{`\/-escaped payload`, []byte(head + `,"payload":"` + string(slash) + `"}`), true},
		{`\u-escaped payload`, []byte(head + `,"payload":"` + fmt.Sprintf(`\u%04x`, p64[0]) + p64[1:] + `"}`), true},
		{"raw LF inside the base64", []byte(head + `,"payload":"` + p64[:mid] + "\n" + p64[mid:] + `"}`), false},
		{"raw CR LF inside the base64", []byte(head + `,"payload":"` + p64[:mid] + "\r\n" + p64[mid:] + `"}`), false},
		{"payload key nested inside config", []byte(string(js[:configAt]) + `"payload":"AAAA",` + string(js[configAt:])), true},
	}
}

// envelopeCorpus is the differential corpus: every kind's envelope,
// every shape of one of them, and bodies json refuses or reads oddly.
func envelopeCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	kinds := kindEnvelopes(tb)
	var out [][]byte
	for _, js := range kinds {
		out = append(out, js)
	}
	for _, s := range envelopeShapes(tb, kinds["f0"]) {
		out = append(out, s.raw)
	}
	js := kinds["hh1"]
	return append(out,
		nil, []byte("{"), []byte(`{"payload":"AAAA`), []byte(`{"agent":"a`), []byte(`{"payload":"AA\"AA"}`),
		[]byte("[1,2]"), []byte("null"), []byte("{}"), []byte(" {} "), []byte(`{"payload":null}`),
		[]byte(`{"payload":""}`), []byte(`{"payload":"AAA="}`), []byte(`{"payload":"AAA"}`),
		[]byte(`{"payload":7}`), []byte(`{"payload":["AAAA"]}`), []byte(`{"payload":"AAAA",}`),
		[]byte(`{"payload":"AAAA"}{"payload":"AAAA"}`), []byte(`{"payload":"A\tAA"}`), []byte(`{"payload":"ÀAAA"}`),
		// An escaped quote does not close a string: a walk that stopped
		// there would see the object end and miss the later "Payload".
		[]byte(`{"payload":"AAAA","x":"\"}","Payload":"BBBB"}`), []byte(`{"x":"\\","payload":"AAAA"}`),
		append(js[:len(js):len(js)], " x"...), append(js[:len(js):len(js)], "\n"...),
	)
}

// checkLikeJSON fails unless decodeSummary and json.Unmarshal agree on
// body — both refuse, or both accept with reflect.DeepEqual Summaries —
// and decodeSummary left body as it found it.
func checkLikeJSON(t *testing.T, body []byte) {
	t.Helper()
	var want Summary
	wantErr := json.Unmarshal(body, &want)
	orig := bytes.Clone(body)
	got, err := decodeSummary(body)
	if !bytes.Equal(body, orig) {
		t.Fatalf("decodeSummary wrote its input")
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decodeSummary err %v, json.Unmarshal err %v on %.200q", err, wantErr, body)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeSummary %+v, json.Unmarshal %+v on %.200q", got, want, body)
	}
}

// TestDecodeSummaryMatchesJSON runs the differential corpus, and checks
// that what an agent ships — every kind's json.Marshal'ed envelope — and
// the plain reorderings of one take the cut, so the payload never meets
// json's scanner, while escaped and raw-control payloads stay whole.
func TestDecodeSummaryMatchesJSON(t *testing.T) {
	for _, body := range envelopeCorpus(t) {
		checkLikeJSON(t, body)
	}
	kinds := kindEnvelopes(t)
	for name, js := range kinds {
		if _, _, ok := payloadSpan(js); !ok {
			t.Errorf("%s: a marshaled envelope is not cut", name)
		}
	}
	cut := map[string]bool{
		"payload first": true, "payload in the middle": true, "indented": true,
		"duplicate payload, the last wins": true, "duplicate payload, an earlier one undecodable": true,
		"case-variant PAYLOAD before payload": true, "payload key nested inside config": true,
	}
	var orig Summary
	if err := json.Unmarshal(kinds["f0"], &orig); err != nil {
		t.Fatal(err)
	}
	for _, s := range envelopeShapes(t, kinds["f0"]) {
		if _, _, ok := payloadSpan(s.raw); ok != cut[s.name] {
			t.Errorf("%s: cut %v, want %v", s.name, ok, cut[s.name])
		}
		var sum Summary
		if err := json.Unmarshal(s.raw, &sum); (err == nil) != s.ok || s.ok && !reflect.DeepEqual(sum, orig) {
			t.Errorf("%s: json.Unmarshal err %v, want ok=%v and the original summary", s.name, err, s.ok)
		}
	}
}

// FuzzDecodeSummary is the reader's contract: on every input it accepts
// exactly when json.Unmarshal does, with a reflect.DeepEqual Summary.
func FuzzDecodeSummary(f *testing.F) {
	for _, body := range envelopeCorpus(f) {
		f.Add(body)
	}
	f.Fuzz(checkLikeJSON)
}

package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"substream/internal/stream"
	"substream/internal/workload"
)

// smallCfg runs every experiment at reduced scale so the whole registry
// stays test-suite fast while still exercising the full code path.
var smallCfg = Config{Scale: 0.05, Trials: 3, Seed: 77}

// tableDigests pins the sha256 of each experiment's rendered tables at
// smallCfg, so every number an experiment prints is fixed by its seed: a
// change that moves one, in an estimator, a comparator, a workload or a
// generator draw, fails here. E2 is not pinned: its tables carry
// wall-clock columns.
var tableDigests = map[string]string{
	"E1":  "c6afe688f3a3dc812a33884ff30cf53fb91e262ff8f933d9a38bd1a430a1b931",
	"E3":  "da738669dd190520d37be1ccfe166c45dc9c35fc4bcef14e3fec197fc504987a",
	"E4":  "4686fde18c77df7b36c68719fc53bc0b4f3eb27749f076d7e7f3ca07240fd24c",
	"E5":  "4635caffbe5fd1da4ac2944e335a0276253dde811fc11d365a9a90f8dea42b3d",
	"E6":  "ee5043018f91fe1d879f8ed38bec2128c6135c8ea16617cbe0a37409b0e21f61",
	"E7":  "5a119710bcd95369c505680858c158045fd098d81c74698163a210c719bd7f0e",
	"E8":  "00c2c583ae3d529d650da8defefbf77c7d8416f1cfa4aa768b02c9ad9faa34a5",
	"E9":  "31e3cad6dffc41a7655d8bf01e9a79ee3def6f500f07da0c11362546bcc934d8",
	"E10": "2b827c1fac7cb5f368fd3dcba35b335abb6b9073feb44cf66695c13537de5454",
	"E11": "b3b26c04ee8e44a3b11c689e2cacfc9a5be430d9306a134ba31c99075a26c4a7",
	"E12": "a75d0dcbdfaa1f8d6717cf3bdd3ada71ba8700fea195d848fa5a3ffa812dcd2a",
}

func TestRegistryComplete(t *testing.T) {
	exps := All()
	if len(exps) != 12 {
		t.Fatalf("registry has %d experiments, want 12", len(exps))
	}
	for i, e := range exps {
		wantID := "E" + itoa(i+1)
		if e.ID != wantID {
			t.Fatalf("experiment %d has ID %s, want %s", i, e.ID, wantID)
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete: %+v", e.ID, e)
		}
	}
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}

func TestByID(t *testing.T) {
	e, ok := ByID("E3")
	if !ok || e.ID != "E3" {
		t.Fatalf("ByID(E3) = %+v, %v", e, ok)
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID(E99) found something")
	}
}

// runOne runs a single experiment at small scale and returns the
// concatenated rendered tables, checked against the experiment's digest.
func runOne(t *testing.T, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	tables := e.Run(smallCfg)
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	var sb strings.Builder
	for _, tb := range tables {
		start := sb.Len()
		tb.Render(&sb)
		if out := sb.String()[start:]; !strings.Contains(out, id) {
			t.Fatalf("%s table title missing id:\n%s", id, out)
		}
	}
	out := sb.String()
	if id != "E2" {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != tableDigests[id] {
			t.Fatalf("%s tables moved at smallCfg: sha256 %s, pinned %s\n%s", id, got, tableDigests[id], out)
		}
	}
	return out
}

func TestE1SmallScale(t *testing.T) {
	out := runOne(t, "E1")
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("E1 claim violated at small scale:\n%s", out)
	}
}

func TestE2SmallScale(t *testing.T) {
	out := runOne(t, "E2")
	if !strings.Contains(out, "mult err") {
		t.Fatalf("E2 output malformed:\n%s", out)
	}
}

func TestE3SmallScale(t *testing.T) {
	out := runOne(t, "E3")
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("E3 claim violated:\n%s", out)
	}
}

func TestE4SmallScale(t *testing.T) {
	out := runOne(t, "E4")
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("E4 claim violated:\n%s", out)
	}
}

func TestE5SmallScale(t *testing.T) {
	out := runOne(t, "E5")
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("E5 claim violated:\n%s", out)
	}
}

func TestE6SmallScale(t *testing.T) {
	out := runOne(t, "E6")
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("E6 claim violated:\n%s", out)
	}
}

func TestE7SmallScale(t *testing.T) {
	out := runOne(t, "E7")
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("E7 claim violated:\n%s", out)
	}
}

func TestE8SmallScale(t *testing.T) {
	out := runOne(t, "E8")
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("E8 claim violated:\n%s", out)
	}
}

func TestE9SmallScale(t *testing.T) {
	out := runOne(t, "E9")
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("E9 claim violated:\n%s", out)
	}
}

func TestE10SmallScale(t *testing.T) {
	out := runOne(t, "E10")
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("E10 claim violated:\n%s", out)
	}
}

func TestE11SmallScale(t *testing.T) {
	out := runOne(t, "E11")
	if !strings.Contains(out, "sample&hold") {
		t.Fatalf("E11 output malformed:\n%s", out)
	}
}

func TestE12SmallScale(t *testing.T) {
	out := runOne(t, "E12")
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("E12 claim violated:\n%s", out)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.scale() != 1 {
		t.Fatalf("default scale %v", c.scale())
	}
	if c.scaledN(100) != 2000 {
		t.Fatalf("floor not applied: %d", c.scaledN(100))
	}
	if c.trials(5) != 5 {
		t.Fatalf("default trials %d", c.trials(5))
	}
	c2 := Config{Scale: 0.5, Trials: 2}
	if c2.scaledN(100000) != 50000 {
		t.Fatalf("scaledN = %d", c2.scaledN(100000))
	}
	if c2.trials(5) != 2 {
		t.Fatalf("trials = %d", c2.trials(5))
	}
}

// zipfStream is workload.Zipf's stream as a slice.
func zipfStream(n, m int, s float64, seed uint64) stream.Slice {
	return workload.Zipf(n, m, s, seed).Stream.(stream.Slice)
}

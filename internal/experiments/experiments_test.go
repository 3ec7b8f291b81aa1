package experiments

import (
	"strings"
	"testing"
)

// smallCfg runs every experiment at reduced scale so the whole registry
// stays test-suite fast while still exercising the full code path.
var smallCfg = Config{Scale: 0.05, Trials: 3, Seed: 77}

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
// concatenated rendered tables.
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
	return sb.String()
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

func TestExperimentsDeterministicBySeed(t *testing.T) {
	e, _ := ByID("E2")
	a := e.Run(Config{Scale: 0.02, Trials: 2, Seed: 5})
	b := e.Run(Config{Scale: 0.02, Trials: 2, Seed: 5})
	// Timing columns differ run to run; compare the stable columns via
	// the mult err column presence and row counts only.
	if len(a) != len(b) {
		t.Fatal("table count differs across identical runs")
	}
}

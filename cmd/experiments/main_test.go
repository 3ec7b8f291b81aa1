package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E5", "E10"} {
		if !strings.Contains(out.String(), id) {
			t.Fatalf("-list output missing %s:\n%s", id, out.String())
		}
	}
}

func TestListEstimators(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list-estimators"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"fk", "0x20", "hh2", "MODE", "quantile", "0x40"} {
		if !strings.Contains(got, want) {
			t.Fatalf("-list-estimators output missing %q:\n%s", want, got)
		}
	}
	quantileRow := false
	for _, line := range strings.Split(got, "\n") {
		// The components the stats nest are no rows of their own.
		if strings.HasPrefix(line, "countmin") || strings.HasPrefix(line, "topk") {
			t.Fatalf("component listed as a kind: %q", line)
		}
		if strings.HasPrefix(line, "quantile") {
			quantileRow = true
			if !strings.Contains(line, "stat") || strings.Contains(line, "wrapper") {
				t.Fatalf("quantile row not marked as a stat kind: %q", line)
			}
		}
	}
	if !quantileRow {
		t.Fatal("no quantile row in -list-estimators output")
	}
}

func TestRunSingleExperimentSmoke(t *testing.T) {
	var out strings.Builder
	// A tiny-scale single-trial run of one experiment exercises the whole
	// selection/config/render path without taking benchmark-scale time.
	if err := run([]string{"-run", "E3", "-scale", "0.05", "-trials", "1", "-seed", "9"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "=== E3") || !strings.Contains(out.String(), "completed in") {
		t.Fatalf("unexpected run output:\n%s", out.String())
	}
}

func TestRunRejectsUnknownID(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "E99"}, &out, io.Discard); err == nil {
		t.Fatal("unknown experiment ID accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scale", "banana"}, &out, io.Discard); err == nil {
		t.Fatal("bad flag value accepted")
	}
}

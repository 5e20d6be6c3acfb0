package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudviews/internal/explain"
	"cloudviews/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden summary")

// TestSummaryGolden pins the cvdash text summary byte-for-byte so format
// changes show up as reviewable diffs. Regenerate with:
//
//	go test ./cmd/cvdash -run Golden -update
func TestSummaryGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-scale", "0.1", "-days", "3"}); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "summary_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("summary drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestSummaryDeterministic guards the golden test itself: identical flags must
// render identical bytes (the report walks several maps, so every listing
// needs a total order).
func TestSummaryDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(&a, []string{"-scale", "0.1", "-days", "2", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, []string{"-scale", "0.1", "-days", "2", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("summary is nondeterministic across runs")
	}
}

// TestHTMLReport exercises the -o path: the HTML report must be written,
// self-contained (inline style, no external references), and byte-identical
// across runs with the same flags.
func TestHTMLReport(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.html")
	p2 := filepath.Join(dir, "b.html")
	var sink bytes.Buffer
	if err := run(&sink, []string{"-scale", "0.1", "-days", "2", "-seed", "7", "-o", p1}); err != nil {
		t.Fatal(err)
	}
	sink.Reset()
	if err := run(&sink, []string{"-scale", "0.1", "-days", "2", "-seed", "7", "-o", p2}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("HTML report is nondeterministic across runs")
	}
	s := string(a)
	for _, want := range []string{"<!doctype html>", "<style>", "arm: baseline", "arm: cloudviews", "polyline"} {
		if !strings.Contains(s, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
	for _, forbid := range []string{"http://", "https://", "<script"} {
		if strings.Contains(s, forbid) {
			t.Errorf("HTML report must be self-contained, found %q", forbid)
		}
	}
}

// TestExplainRollupJSON exercises the -explain-json path: the artifact must be
// valid JSON, deterministic, and its reasons drawn from the closed enum; the
// text summary must carry the matching miss-reason section.
func TestExplainRollupJSON(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.json")
	p2 := filepath.Join(dir, "b.json")
	var sink bytes.Buffer
	if err := run(&sink, []string{"-scale", "0.1", "-days", "2", "-seed", "7", "-explain-json", p1}); err != nil {
		t.Fatal(err)
	}
	text := sink.String()
	if !strings.Contains(text, "REUSE MISS REASONS") {
		t.Error("text summary is missing the miss-reason section")
	}
	sink.Reset()
	if err := run(&sink, []string{"-scale", "0.1", "-days", "2", "-seed", "7", "-explain-json", p2}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("explain rollup JSON is nondeterministic across runs")
	}
	var roll telemetry.ExplainRollup
	if err := json.Unmarshal(a, &roll); err != nil {
		t.Fatalf("explain rollup is not valid JSON: %v", err)
	}
	if len(roll.TotalMiss) == 0 {
		t.Fatal("explain rollup recorded no miss reasons over a 2-day run")
	}
	for reason := range roll.TotalMiss {
		if !explain.Valid(explain.Reason(reason)) {
			t.Errorf("rollup reason %q outside the closed enum", reason)
		}
	}
	// Day totals reconcile with the fleet totals.
	sum := make(map[string]int)
	for _, d := range roll.Days {
		for r, n := range d.Miss {
			sum[r] += n
		}
	}
	for r, n := range roll.TotalMiss {
		if sum[r] != n {
			t.Errorf("reason %q: day sum %d != total %d", r, sum[r], n)
		}
	}
}

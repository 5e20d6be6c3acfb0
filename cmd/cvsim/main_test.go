package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden outputs")

// elapsed matches the wall-clock timing line, the only output that differs
// between runs.
var elapsed = regexp.MustCompile(`(?m)^completed in .*\n`)

// TestOutputGolden pins cvsim's report byte-for-byte, timing line stripped,
// for the production window, its verbose listings and the guard storm.
// Regenerate with:
//
//	go test ./cmd/cvsim -run Golden -update
func TestOutputGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"plain", []string{"-scale", "0.1", "-days", "3"}},
		{"series_metrics_explain", []string{"-scale", "0.1", "-days", "3", "-series", "-metrics-both", "-explain"}},
		{"guard", []string{"-guard", "-scale", "0.2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, c.args); err != nil {
				t.Fatal(err)
			}
			got := elapsed.ReplaceAll(buf.Bytes(), nil)
			golden := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("cvsim %v drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", c.args, golden, got, want)
			}
		})
	}
}

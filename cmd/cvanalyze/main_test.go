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

// elapsed matches the per-figure wall-clock lines, the only output that
// differs between runs.
var elapsed = regexp.MustCompile(`(?m)^\(.* done in .*\)\n`)

// TestFiguresGolden pins Figures 2, 3, 8 and 9 and the §5.4 concurrent
// opportunity at scale 0.1, and Figure 9 at scale 1.0 as EXPERIMENTS.md
// publishes it (its day runs merge joins), byte-for-byte, timing lines
// stripped. Regenerate with:
//
//	go test ./cmd/cvanalyze -run Golden -update
func TestFiguresGolden(t *testing.T) {
	for _, c := range []struct{ name, fig, scale string }{
		{"fig2", "2", "0.1"},
		{"fig3", "3", "0.1"},
		{"fig8", "8", "0.1"},
		{"fig9", "9", "0.1"},
		{"fig9-scale1", "9", "1.0"},
		{"concurrent", "concurrent", "0.1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, []string{"-fig", c.fig, "-scale", c.scale}); err != nil {
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
				t.Errorf("cvanalyze -fig %s -scale %s drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", c.fig, c.scale, golden, got, want)
			}
		})
	}
}

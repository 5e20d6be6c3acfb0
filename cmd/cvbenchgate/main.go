// Command cvbenchgate parses `go test -bench -benchmem` output, records the
// executor-throughput trajectory as JSON, and gates CI on allocation
// regressions: if any gated benchmark's allocs/op or B/op grows more than the
// allowed fraction over the committed baseline, it exits non-zero.
//
// Allocations gate instead of ns/op because allocs/op and B/op barely move
// for a given binary (the hot path either allocates or it doesn't) while
// wall-clock on shared CI runners is too noisy for a hard threshold. The ns/op
// numbers are still recorded in the trajectory file for trend inspection.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkConcurrentSubmit -benchmem . |
//	    cvbenchgate -out BENCH_exec.json -baseline BENCH_exec.baseline.json
//
// With no -baseline the tool only records; with no -out it only gates.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// HasAllocs distinguishes a measured 0 allocs/op (the lexer bench) from
	// output produced without -benchmem; only measured entries arm the gate.
	HasAllocs bool `json:"has_allocs"`
	// Extra holds custom b.ReportMetric units (jobs/sec, MB/s, ...).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// File is the trajectory-file shape (BENCH_exec.json).
type File struct {
	Gate    string   `json:"gate"`
	Results []Result `json:"results"`
}

func main() {
	in := flag.String("in", "", "read bench output from a file instead of stdin")
	out := flag.String("out", "", "write the parsed trajectory JSON here")
	baseline := flag.String("baseline", "", "committed baseline JSON to gate against")
	gate := flag.String("gate", "BenchmarkConcurrentSubmit", "benchmark name prefix the allocation gate applies to")
	maxRegress := flag.Float64("max-alloc-regress", 0.10, "allowed fractional allocs/op and B/op increase over baseline")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal("open input: %v", err)
		}
		defer f.Close()
		r = f
	}

	results, err := parseBench(r)
	if err != nil {
		fatal("parse bench output: %v", err)
	}
	if len(results) == 0 {
		fatal("no benchmark lines found in input")
	}

	if *out != "" {
		data, err := json.MarshalIndent(File{Gate: *gate, Results: results}, "", "  ")
		if err != nil {
			fatal("marshal: %v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal("write %s: %v", *out, err)
		}
		fmt.Printf("cvbenchgate: wrote %d results to %s\n", len(results), *out)
	}

	if *baseline == "" {
		return
	}
	base, err := readFile(*baseline)
	if err != nil {
		fatal("read baseline: %v", err)
	}
	failures := gateAllocs(base.Results, results, *gate, *maxRegress)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "cvbenchgate: FAIL "+f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	fmt.Printf("cvbenchgate: allocation gate passed (%s*, tolerance %.0f%%)\n", *gate, *maxRegress*100)
}

// baseName strips the "-N" GOMAXPROCS suffix `go test` appends to a benchmark
// name whenever N > 1, so a baseline matches runs on any core count and every
// arm of a -cpu list.
func baseName(name string) string {
	if s := strings.TrimRight(name, "0123456789"); s != name && strings.HasSuffix(s, "-") {
		return s[:len(s)-1]
	}
	return name
}

// gateAllocs compares every gated baseline entry's allocs/op and B/op against
// the fresh results of the same base name (see baseName), each -cpu arm on
// its own. A gated
// benchmark missing from the fresh run fails the gate — silently dropping an
// arm must not pass.
func gateAllocs(base, cur []Result, prefix string, tolerance float64) []string {
	byName := make(map[string][]Result, len(cur))
	for _, r := range cur {
		k := baseName(r.Name)
		byName[k] = append(byName[k], r)
	}
	var failures []string
	for _, b := range base {
		if !strings.HasPrefix(b.Name, prefix) || !b.HasAllocs {
			continue
		}
		matches := byName[baseName(b.Name)]
		if len(matches) == 0 {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from this run", b.Name))
		}
		limit := b.AllocsPerOp * (1 + tolerance)
		for _, c := range matches {
			if c.AllocsPerOp > limit {
				failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f exceeds baseline %.0f by more than %.0f%% (limit %.1f)",
					c.Name, c.AllocsPerOp, b.AllocsPerOp, tolerance*100, limit))
			}
			if bytes := b.BytesPerOp * (1 + tolerance); c.BytesPerOp > bytes {
				failures = append(failures, fmt.Sprintf("%s: B/op %.0f exceeds baseline %.0f by more than %.0f%% (limit %.0f)",
					c.Name, c.BytesPerOp, b.BytesPerOp, tolerance*100, bytes))
			}
		}
	}
	return failures
}

func readFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// parseBench extracts benchmark result lines from `go test -bench` output.
// A line looks like:
//
//	BenchmarkConcurrentSubmit/workers=1  114235  33933 ns/op  29470 jobs/sec  7973 B/op  44 allocs/op
func parseBench(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				res = Result{}
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = val
			case "B/op":
				res.BytesPerOp = val
			case "allocs/op":
				res.AllocsPerOp = val
				res.HasAllocs = true
			default:
				if res.Extra == nil {
					res.Extra = map[string]float64{}
				}
				res.Extra[unit] = val
			}
		}
		if res.Name != "" {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cvbenchgate: "+format+"\n", args...)
	os.Exit(1)
}

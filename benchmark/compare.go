package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	blob, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(blob, &s)
}

// readResults loads every untraced result file of a directory, as
// workload → metric → one value per file (that is, per seed or repetition).
func readResults(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.e2e.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no *.e2e.json result files", dir)
	}
	sort.Strings(files)
	out := make(map[string]map[string][]float64)
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
		ratio := float64(r.Failed) / float64(max(r.Attempted, 1))
		out[r.Workload]["fail_ratio"] = append(out[r.Workload]["fail_ratio"], ratio)
	}
	return out, nil
}

// worseBy returns by what share of base the value got worse (negative when
// it improved).
func worseBy(better string, base, value float64) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - value) / base
	}
	return (value - base) / base
}

// compareDirs prints, per workload and end-to-end metric, the median of each
// result set, their ratio with its base, and whether the second is no worse
// than the first by more than the metric's bound. It reports whether every
// row passed. fail_ratio has no bound of its own: any increase fails. The
// loop's speed metrics are shown without a verdict.
func compareDirs(w io.Writer, specPath, dirA, dirB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(dirA)
	if err != nil {
		return false, err
	}
	b, err := readResults(dirB)
	if err != nil {
		return false, err
	}
	allOK := true
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %22s %7s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "bound", "verdict")
	for _, wl := range spec.Workloads {
		ma, mb := a[wl.Name], b[wl.Name]
		if ma == nil || mb == nil {
			fmt.Fprintf(w, "%-12s missing from one side\n", wl.Name)
			allOK = false
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := median(ma[m.Name]), median(mb[m.Name])
			verdict := "PASS"
			if len(ma[m.Name]) == 0 || len(mb[m.Name]) == 0 {
				verdict = "MISSING"
			} else if worseBy(m.Better, va, vb) > m.Bound {
				verdict = "FAIL"
			}
			if verdict != "PASS" {
				allOK = false
			}
			fmt.Fprintf(w, "%-12s %-20s %14.4f %14.4f %10.4f of %-8.4g %6.1f%%  %s%s\n",
				wl.Name, m.Name, va, vb, vb/va, va, m.Bound*100, verdict, spreadNote(ma[m.Name], mb[m.Name]))
		}
		// The loop's speed carries no bound (README): both medians and their
		// spreads are shown for a paired reading.
		for _, m := range loopSpeed {
			va, vb := median(ma[m.name]), median(mb[m.name])
			fmt.Fprintf(w, "%-12s %-20s %14.4f %14.4f %10.4f of %-8.4g %7s  %s%s\n",
				wl.Name, m.name, va, vb, vb/va, va, "none", "shown", spreadNote(ma[m.name], mb[m.name]))
		}
		fa, fb := median(ma["fail_ratio"]), median(mb["fail_ratio"])
		verdict := "PASS"
		if fb > fa {
			verdict, allOK = "FAIL", false
		}
		fmt.Fprintf(w, "%-12s %-20s %14.4f %14.4f %22s %7s  %s\n", wl.Name, "fail_ratio", fa, fb, "", "none", verdict)
	}
	return allOK, nil
}

// spreadNote reports each side's interquartile spread as a share of its
// median when a side holds enough runs for quartiles.
func spreadNote(a, b []float64) string {
	note := ""
	for i, v := range [][]float64{a, b} {
		if len(v) < 4 {
			continue
		}
		q1, q3 := quartiles(v)
		note += fmt.Sprintf("  spread %c %.1f%%", 'a'+i, (q3-q1)/median(v)*100)
	}
	return note
}

// Command benchmark is the repository's standing benchmark: four workloads
// generated from internal/workload, end-to-end metrics from an untraced run,
// and per-layer metrics from a separate traced run. See README.md.
//
// It measures the program without editing it: every number comes from timing
// calls into exported functions, from the runtime, and from the counters the
// system already exports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// mismatch reports a wrong answer on standard error; the run goes on, counts
// it as a failed op, and exits non-zero.
func mismatch(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "MISMATCH "+format+"\n", args...)
}

func main() {
	var c runCfg
	workload := flag.String("workload", "all", "workload name, or all")
	flag.Uint64Var(&c.seed, "seed", 1, "seed of the generated data, submission order and request mix")
	flag.Float64Var(&c.seconds, "seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "0 = untraced run reporting end-to-end metrics, 1 = traced run reporting per-layer metrics")
	flag.BoolVar(&c.smoke, "smoke", false, "tiny world and a few hundred ops, for tests")
	flag.StringVar(&c.outDir, "out", "", "directory for result and trace files (none when empty)")
	compare := flag.Bool("compare", false, "compare two result directories given as arguments against the bounds in -spec")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition read by -compare")
	table := flag.String("table", "", "render the layer table of this trace file and exit")
	child := flag.Bool("serve-child", false, "internal: run as serve_mixed's server process")
	flag.Parse()
	c.trace = *trace != 0

	var err error
	switch {
	case *child:
		err = serveChild(c)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result directories")
		} else {
			var ok bool
			ok, err = compareDirs(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
			if err == nil && !ok {
				os.Exit(1)
			}
		}
	case *table != "":
		var spans []span
		var counters map[string]float64
		if spans, counters, err = readTrace(*table); err == nil {
			renderTable(os.Stdout, filepath.Base(*table), spans, counters)
		}
	default:
		if c.self, err = os.Executable(); err == nil {
			err = runWorkloads(os.Stdout, c, *workload)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runWorkloads runs the named workload (or all four), prints every metric as
// "workload metric value unit", and prints as the last line the result object
// of the last workload run. It fails when any answer was wrong.
func runWorkloads(w io.Writer, c runCfg, name string) error {
	defs := workloads
	if name != "all" {
		d, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		defs = []workloadDef{d}
	}
	var last []byte
	failed := 0
	for _, d := range defs {
		out, err := d.run(&c, d)
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		printMetrics(w, d.name, c.trace, out)
		res := newResult(d.name, c, out)
		if c.outDir != "" {
			if err := writeResult(c, res, out); err != nil {
				return err
			}
		}
		if last, err = json.Marshal(res.line()); err != nil {
			return err
		}
		failed += out.failed
	}
	fmt.Fprintf(w, "%s\n", last)
	if failed > 0 {
		return fmt.Errorf("%d ops failed or answered wrongly", failed)
	}
	return nil
}

func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func printMetrics(w io.Writer, workload string, trace bool, out *outcome) {
	defs := metricDefs(trace)
	if !trace {
		defs = append(append([]metricDef(nil), defs...), loopSpeed...)
	}
	for _, d := range defs {
		m, ok := out.metrics[d.name]
		switch {
		case !ok:
			fmt.Fprintf(w, "%s %s missing %s\n", workload, d.name, d.unit)
		case m.NA:
			fmt.Fprintf(w, "%s %s n/a %s\n", workload, d.name, d.unit)
		default:
			fmt.Fprintf(w, "%s %s %v %s\n", workload, d.name, m.Value, d.unit)
		}
	}
	ratio := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Fprintf(w, "%s fail_ratio %v ratio\n", workload, ratio)
}

// env records where a result was measured.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readEnv() env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	// The driver's checkout is not a git repository; the commit is recorded
	// where there is one.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// result is the file written per workload under -out, and the source of the
// driver's result line.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Env       env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     map[string]any    `json:"notes,omitempty"`
}

func newResult(workload string, c runCfg, out *outcome) result {
	return result{
		Workload: workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace, Env: readEnv(),
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: out.metrics, Notes: out.notes,
	}
}

// line is the driver's result object: exactly correct, attempted, failed and
// metrics, the metrics being every end-to-end or every per-layer metric with
// exactly a value and a unit.
func (r result) line() map[string]any {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]valueUnit)
	for _, d := range metricDefs(r.Trace) {
		metrics[d.name] = valueUnit{Value: r.Metrics[d.name].Value, Unit: d.unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

func resultName(r result) string {
	kind := "e2e"
	if r.Trace {
		kind = "layers"
	}
	return fmt.Sprintf("%s.seed%d.%s.json", r.Workload, r.Seed, kind)
}

func writeResult(c runCfg, r result, out *outcome) error {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(c.outDir, resultName(r)), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if !c.trace {
		return nil
	}
	return writeTrace(filepath.Join(c.outDir, r.Workload+".trace.jsonl"), out.spans, out.counters)
}

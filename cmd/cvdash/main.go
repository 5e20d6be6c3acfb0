// Command cvdash renders the feedback-loop health dashboard: it runs the
// production A/B experiment (baseline vs CloudViews over the same generated
// workload), collects the telemetry pipeline's output — day-cadence series,
// per-phase critical-path attribution, SLO watchdog alerts — and prints a
// plain-text summary, optionally writing the self-contained HTML report.
//
// Usage:
//
//	cvdash [-scale 0.25] [-days N] [-seed N] [-o report.html]
//	       [-explain-json rollup.json] [-budget BYTES] [-faults SPEC]
//	       [-faultseed N]
//
// -budget sets the per-VC view-storage SLO in bytes; when any VC's
// cloudviews_view_bytes gauge exceeds it, the watchdog pages. 0 disables the
// storage rule.
//
// Output is a pure function of the flags: the same seed and settings render
// byte-identical text and HTML, so the summary is golden-testable and the
// HTML diffs cleanly across code changes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"cloudviews/internal/experiments"
	"cloudviews/internal/telemetry"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "cvdash: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, executes the experiment and writes the text summary to w;
// -o writes the HTML report too, and -explain-json the CloudViews arm's
// miss-reason rollup as JSON. Extracted from main so the summary format can
// be golden-tested.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("cvdash", flag.ExitOnError)
	wf := experiments.RegisterFlags(fs)
	htmlPath := fs.String("o", "", "write the HTML report to this path")
	explainPath := fs.String("explain-json", "", "write the CloudViews arm's miss-reason fleet rollup as JSON to this path")
	budget := fs.Int64("budget", 0, "per-VC view-storage SLO in bytes (0 = no storage rule)")
	fs.Parse(args)

	cfg, err := wf.Production()
	if err != nil {
		return err
	}
	if *budget > 0 {
		cfg.SLORules = append(telemetry.DefaultRules(), telemetry.StorageBudgetRule(float64(*budget)))
	}

	res, err := experiments.RunProduction(cfg)
	if err != nil {
		return err
	}
	report := res.Report()
	if _, err := io.WriteString(w, report.RenderText()); err != nil {
		return err
	}
	if *htmlPath != "" {
		if err := os.WriteFile(*htmlPath, []byte(report.RenderHTML()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote HTML report to %s\n", *htmlPath)
	}
	if *explainPath != "" {
		blob, err := json.MarshalIndent(telemetry.BuildExplainRollup(res.CVTelemetry), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*explainPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote explain rollup to %s\n", *explainPath)
	}
	return nil
}

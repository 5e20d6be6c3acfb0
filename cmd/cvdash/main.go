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
	"cloudviews/internal/fault"
	"cloudviews/internal/telemetry"
)

func main() {
	scale := flag.Float64("scale", 0.25, "workload scale factor (1.0 = paper-sized deployment)")
	days := flag.Int("days", 0, "override window length in days (0 = scaled default)")
	seed := flag.Uint64("seed", 0, "override workload seed")
	out := flag.String("o", "", "write the HTML report to this path")
	explainJSON := flag.String("explain-json", "", "write the CloudViews arm's miss-reason fleet rollup as JSON to this path")
	budget := flag.Int64("budget", 0, "per-VC view-storage SLO in bytes (0 = no storage rule)")
	faults := flag.String("faults", "", `fault spec, e.g. "stage=0.05,read=0.02,seed=7" (empty = no injection)`)
	faultSeed := flag.Uint64("faultseed", 0, "override the fault-injection seed (0 = keep spec's seed)")
	flag.Parse()

	var fcfg fault.Config
	if *faults != "" {
		parsed, err := fault.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cvdash: -faults: %v\n", err)
			os.Exit(2)
		}
		if *faultSeed != 0 {
			parsed.Seed = *faultSeed
		}
		fcfg = parsed
	}
	if err := run(os.Stdout, *scale, *days, *seed, *budget, fcfg, *out, *explainJSON); err != nil {
		fmt.Fprintf(os.Stderr, "cvdash: %v\n", err)
		os.Exit(1)
	}
}

// run executes the experiment and writes the text summary to w; when htmlPath
// is non-empty the HTML report is written there too, and explainPath gets the
// CloudViews arm's miss-reason rollup as JSON. Extracted from main so the
// summary format can be golden-tested.
func run(w io.Writer, scale float64, days int, seed uint64, budget int64, faults fault.Config, htmlPath, explainPath string) error {
	cfg := experiments.DefaultProduction()
	if scale < 1.0 {
		cfg = cfg.Scale(scale)
	}
	if days > 0 {
		cfg.Days = days
	}
	if seed != 0 {
		cfg.Profile.Seed = seed
	}
	cfg.Faults = faults
	if budget > 0 {
		cfg.SLORules = append(telemetry.DefaultRules(), telemetry.StorageBudgetRule(float64(budget)))
	}

	res, err := experiments.RunProduction(cfg)
	if err != nil {
		return err
	}
	report := res.Report()
	if _, err := io.WriteString(w, report.RenderText()); err != nil {
		return err
	}
	if htmlPath != "" {
		if err := os.WriteFile(htmlPath, []byte(report.RenderHTML()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote HTML report to %s\n", htmlPath)
	}
	if explainPath != "" {
		blob, err := json.MarshalIndent(telemetry.BuildExplainRollup(res.CVTelemetry), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(explainPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote explain rollup to %s\n", explainPath)
	}
	return nil
}

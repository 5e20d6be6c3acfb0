// Command cvsim runs the production-window experiment: the same generated
// Cosmos-like workload executed twice — baseline and CloudViews-enabled —
// over a simulated two-month window, reproducing Table 1 and Figures 6a–d and
// 7a–d of the paper.
//
// Usage:
//
//	cvsim [-scale 0.25] [-days N] [-series] [-seed N] [-metrics]
//	      [-metrics-both] [-explain] [-report out.html] [-faults SPEC]
//	      [-faultseed N]
//	      [-store mem|disk] [-datadir DIR] [-guard]
//
// -scale 1.0 runs the full 619-pipeline, 21-VC deployment (minutes of CPU);
// the default 0.25 keeps it under a minute while preserving the shapes.
//
// -faults injects deterministic failures into both arms identically. SPEC is
// comma-separated point=rate pairs — stage, preempt, spool, read, job — plus
// an optional seed, e.g. -faults "stage=0.05,read=0.02,seed=7". Same spec,
// same schedule: reruns reproduce the exact fault placement.
//
// -report writes the self-contained cvdash HTML health report (both arms:
// series sparklines, critical-path breakdowns, SLO alerts) to the given path.
// Output is byte-identical for the same seed and flags.
//
// -store selects the view-store backend: "mem" (default, in-memory) or
// "disk", which persists each arm's views in a crash-recoverable WAL +
// snapshot store under -datadir (default ./cvsim-data). On startup each
// arm's store recovers whatever a previous run left behind and reports what
// the recovery did.
//
// -guard runs the guardrail chaos experiment instead: one workload, two
// arms under an identical seeded storage.view.read fault storm targeting the
// first VC's views over the middle third of the window — unguarded vs
// guarded by the circuit-breaker / kill-switch subsystem — and prints the
// comparison figure plus the guard's decision log. The unguarded arm's SLO
// verdict regresses; the guarded arm's stays green. -faultseed seeds the
// storm (default 2020); -faults adds its points to both arms on top of it,
// and -store disk keeps each arm's views under -datadir.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cloudviews/internal/experiments"
	"cloudviews/internal/repository"
	"cloudviews/internal/storage"
	"cloudviews/internal/storage/durable"
	"cloudviews/internal/telemetry"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "cvsim: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, runs the selected experiment and writes its report to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("cvsim", flag.ExitOnError)
	wf := experiments.RegisterFlags(fs)
	series := fs.Bool("series", false, "print the full Figure 6/7 daily series")
	metrics := fs.Bool("metrics", false, "print the CloudViews arm's system-metrics export")
	metricsBoth := fs.Bool("metrics-both", false, "print BOTH arms' system-metrics exports side by side")
	explainFlag := fs.Bool("explain", false, "print the CloudViews arm's fleet-wide reuse miss-reason rollup")
	report := fs.String("report", "", "write the cvdash HTML health report to this path")
	store := fs.String("store", "mem", `view-store backend: "mem" (in-memory) or "disk" (durable WAL+snapshot)`)
	datadir := fs.String("datadir", "cvsim-data", "data directory for -store=disk (one subdirectory per arm)")
	guardFlag := fs.Bool("guard", false, "run the guarded-vs-unguarded fault-storm chaos experiment instead of the production window")
	fs.Parse(args)

	build := wf.Production
	if *guardFlag {
		build = wf.GuardStorm
	}
	cfg, err := build()
	if err != nil {
		return err
	}
	switch *store {
	case "mem":
	case "disk":
		cfg.StoreFactory = func(arm string) (storage.Engine, error) {
			eng, err := durable.Open(filepath.Join(*datadir, arm))
			if err != nil {
				return nil, err
			}
			rec := eng.Recovery()
			fmt.Fprintf(w, "cvsim: %s view store recovered: %d views (%d snapshot, %d WAL records, %d torn tails dropped, %d in-flight abandoned)\n",
				arm, rec.ViewsRecovered, rec.SnapshotsLoaded, rec.RecordsReplayed, rec.TornTailsTruncated, rec.InFlightAbandoned)
			return eng, nil
		}
	default:
		return fmt.Errorf("-store must be \"mem\" or \"disk\", got %q", *store)
	}
	if *guardFlag {
		// The guarded-vs-unguarded chaos comparison, printed as the figure
		// the CI chaos gate uploads.
		fmt.Fprintf(w, "cvsim -guard: %d pipelines, %d VCs, %d days (scale %.2f)\n",
			cfg.Profile.Pipelines, cfg.Profile.VCs, cfg.Days, wf.Scale)
		start := time.Now()
		res, err := experiments.RunGuardComparison(cfg)
		if err != nil {
			return fmt.Errorf("-guard: %v", err)
		}
		fmt.Fprintf(w, "completed in %v\n\n", time.Since(start).Round(time.Millisecond))
		fmt.Fprintln(w, experiments.RenderGuardFigure(res))
		return nil
	}

	fmt.Fprintf(w, "cvsim: %d pipelines, %d VCs, %d days (scale %.2f)\n",
		cfg.Profile.Pipelines, cfg.Profile.VCs, cfg.Days, wf.Scale)
	start := time.Now()
	res, err := experiments.RunProduction(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "completed in %v\n\n", time.Since(start).Round(time.Millisecond))

	if cfg.Faults.Enabled() {
		var f repository.Outcome
		for _, d := range res.Days {
			f.Add(d.CV.Outcome)
		}
		fmt.Fprintf(w, "faults (%s): %d job retries, %d stage retries, %d preemptions, %d reuse fallbacks, %.0fs recovery delay\n\n",
			cfg.Faults.Spec(), f.JobRetries, f.StageRetries, f.BonusPreemptions, f.ReuseFallbacks, f.FaultDelaySec)
	}

	baseVerdict, cvVerdict := res.Verdicts()
	fmt.Fprintf(w, "SLO verdicts: baseline %s, cloudviews %s\n\n", baseVerdict, cvVerdict)

	fmt.Fprintln(w, experiments.RenderTable1(res.Table1))
	if *series {
		fmt.Fprintln(w, experiments.RenderFigure6(res))
		fmt.Fprintln(w, experiments.RenderFigure7(res))
	} else {
		// Print first/last rows so the shape is visible without -series.
		fmt.Fprintln(w, "(run with -series for the full Figure 6/7 daily series)")
	}
	if *metrics && !*metricsBoth {
		fmt.Fprintln(w, "\nSYSTEM METRICS (CloudViews arm, Prometheus text format)")
		fmt.Fprint(w, res.Metrics)
	}
	if *metricsBoth {
		fmt.Fprintln(w, "\nSYSTEM METRICS (baseline arm, Prometheus text format)")
		fmt.Fprint(w, res.BaseMetrics)
		fmt.Fprintln(w, "\nSYSTEM METRICS (CloudViews arm, Prometheus text format)")
		fmt.Fprint(w, res.Metrics)
	}
	if *explainFlag {
		fmt.Fprintln(w)
		fmt.Fprint(w, telemetry.BuildExplainRollup(res.CVTelemetry).RenderExplainText())
	}
	if *report != "" {
		if err := os.WriteFile(*report, []byte(res.Report().RenderHTML()), 0o644); err != nil {
			return fmt.Errorf("-report: %v", err)
		}
		fmt.Fprintf(w, "\nwrote health report to %s\n", *report)
	}
	return nil
}

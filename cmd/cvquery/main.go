// Command cvquery runs a single SCOPE-like script end to end against the
// retail demo catalog (the paper's Figure 4 datasets), printing the compiled
// plan, subexpression signatures, reuse decisions, and the result. Submitting
// the same (or an overlapping) script again in one session demonstrates
// materialization and reuse.
//
// Usage:
//
//	cvquery [-script file.scope] [-n 2] [-show-rows 10] [-annotate] [-trace]
//	        [-explain]
//
// Without -script, the three Figure 4 analyst queries are run in sequence,
// after a workload-analysis pass primes the insights service. -explain prints
// each job's structured reuse-provenance report: one line per candidate view
// with its closed-enum reason (matched, no-annotation, cost, expired, ...)
// and the container-seconds banked or forfeited.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/core"
	"cloudviews/internal/exec"
	"cloudviews/internal/explain"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/insights"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/stats"
	"cloudviews/internal/storage"
	"cloudviews/internal/storage/durable"
	"cloudviews/internal/workload"

	cluster "cloudviews/internal/cluster"
)

func main() {
	scriptPath := flag.String("script", "", "path to a SCOPE-like script (default: Figure 4 demo)")
	repeats := flag.Int("n", 2, "times to run the script(s); 2+ demonstrates reuse")
	showRows := flag.Int("show-rows", 8, "result rows to print")
	annotate := flag.Bool("annotate", false, "export the query annotations file for the first job's tag")
	trace := flag.Bool("trace", false, "print each job's execution timeline (spans + lifecycle events; -explain prints the reuse decisions)")
	explainFlag := flag.Bool("explain", false, "print each job's structured reuse-provenance report")
	flag.Parse()

	if err := run(os.Stdout, *scriptPath, *repeats, *showRows, *annotate, *trace, *explainFlag); err != nil {
		fmt.Fprintf(os.Stderr, "cvquery: %v\n", err)
		os.Exit(1)
	}
}

// run drives the whole session against w, so tests can golden the output.
func run(w io.Writer, scriptPath string, repeats, showRows int, annotate, trace, explainFlag bool) error {
	cat, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		return err
	}
	cat.SetScaleFactor("Sales", 100_000) // pretend Sales is production-sized

	eng := core.NewEngine(core.Config{
		ClusterName: "demo",
		Catalog:     cat,
		ClusterCfg:  cluster.Config{Capacity: 500},
		Selection:   analysis.SelectionConfig{UseBigSubs: true},
	})
	eng.OnboardVC("demo-vc")

	var scripts []string
	if scriptPath != "" {
		blob, err := os.ReadFile(scriptPath)
		if err != nil {
			return err
		}
		scripts = []string{string(blob)}
	} else {
		scripts = fixtures.Figure4Queries()
		fmt.Fprintln(w, "Running the paper's Figure 4 scenario: three analysts over shared Sales/Customer/Parts data.")
	}

	clock := fixtures.Epoch
	seq := 0
	for round := 0; round < repeats; round++ {
		fmt.Fprintf(w, "\n=== round %d ===\n", round+1)
		for i, src := range scripts {
			seq++
			in := workload.JobInput{
				ID:       fmt.Sprintf("cvquery-%03d", seq),
				Cluster:  "demo",
				VC:       "demo-vc",
				Pipeline: fmt.Sprintf("analyst-%d", i+1),
				User:     fmt.Sprintf("analyst-%d", i+1),
				Runtime:  "scope-r1",
				Script:   src,
				Submit:   clock,
				OptIn:    true,
			}
			clock = clock.Add(time.Minute)
			run, err := eng.CompileAndExecute(in)
			if err != nil {
				return err
			}
			printRun(w, run, showRows)
			if trace && run.Trace != nil {
				fmt.Fprint(w, run.Trace.Render())
			}
			if explainFlag {
				fmt.Fprint(w, explain.RenderDecisions(run.Input.ID, run.Explain.Decisions()))
			}
			if annotate && round == 0 && i == 0 {
				exportAnnotations(w, eng.Insights, run.Compile.Tag)
			}
		}
		// Between rounds, the feedback loop analyzes what it saw.
		tags, rejected := eng.RunAnalysis(fixtures.Epoch.Add(-time.Hour), clock.Add(time.Hour))
		fmt.Fprintf(w, "\n[analysis] published annotations for %d job tag(s); %d candidate(s) rejected as schedule-concurrent\n",
			tags, rejected)
	}

	// The store counts views materialized, which equals the views sealed
	// unless a seal failed after its materialize (the job then abandons the
	// view); the engine counts every view a compile matched.
	fmt.Fprintf(w, "\nsession totals: views created=%d, views reused=%.0f, live views=%d\n",
		eng.Store.Snapshot().Created, eng.Metrics.Counter("cloudviews_views_reused_total").Value(), eng.Store.Count())
	return nil
}

func printRun(w io.Writer, run *core.JobRun, showRows int) {
	cr := run.Compile
	fmt.Fprintf(w, "\n--- %s (tag %s) ---\n", run.Input.ID, cr.Tag)
	fmt.Fprint(w, plan.Format(cr.Plan))
	if len(cr.Matched) > 0 {
		for _, m := range cr.Matched {
			fmt.Fprintf(w, "REUSED view %s (replaced %s, %d logical rows)\n", m.Strict.Short(), m.ReplacedOp, m.Rows)
		}
	}
	if len(cr.Proposed) > 0 {
		for _, p := range cr.Proposed {
			fmt.Fprintf(w, "MATERIALIZING view %s -> %s\n", p.Strict.Short(), p.Path)
		}
	}
	printSignatures(w, cr)
	res := run.Exec
	fmt.Fprintf(w, "work=%.2f container-sec, input=%s, read=%s, spool=%.2f cs\n",
		res.TotalWork, mb(res.InputBytes), mb(res.TotalRead), res.SpoolWork)
	t := res.Table
	n := t.NumRows()
	fmt.Fprintf(w, "result: %d rows (%s)\n", n, t.Schema)
	for i := 0; i < n && i < showRows; i++ {
		fmt.Fprintln(w, "  "+t.Rows[i].String())
	}
	if n > showRows {
		fmt.Fprintf(w, "  ... %d more\n", n-showRows)
	}
}

func printSignatures(w io.Writer, cr *optimizer.CompileResult) {
	byNode := make(map[plan.Node]signature.Subexpr, len(cr.Subs))
	for _, s := range cr.Subs {
		byNode[s.Node] = s
	}
	fmt.Fprintln(w, "subexpression signatures (strict / recurring):")
	plan.Walk(cr.Plan, func(n plan.Node) {
		if s, ok := byNode[n]; ok {
			fmt.Fprintf(w, "  %-9s %s / %s\n", n.OpName(), s.Strict.Short(), s.Recurring.Short())
		}
	})
}

func exportAnnotations(w io.Writer, svc *insights.Service, tag signature.Tag) {
	blob, err := svc.ExportAnnotationsFile(tag)
	if err != nil {
		fmt.Fprintf(w, "[annotations] none for %s yet (%v)\n", tag, err)
		return
	}
	fmt.Fprintf(w, "[annotations file for %s]\n%s\n", tag, blob)
}

func mb(b int64) string { return fmt.Sprintf("%.1f MB", float64(b)/1e6) }

// Interface assertions document the moving parts this tool exercises: both
// view-store backends satisfy the executor's read interface and the pluggable
// engine contract.
var (
	_ exec.ViewStore = (*storage.Store)(nil)
	_ exec.ViewStore = (*durable.Engine)(nil)
	_ storage.Engine = (*storage.Store)(nil)
	_ storage.Engine = (*durable.Engine)(nil)
	_                = stats.NewEstimator
)

package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/core"
	"cloudviews/internal/data"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/insights"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/workload"
)

// miniWorld builds an engine over a single hand-made dataset so lifecycle
// effects are easy to assert.
func miniWorld(t *testing.T) (*core.Engine, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New()
	schema := data.Schema{
		{Name: "Id", Kind: data.KindInt},
		{Name: "Region", Kind: data.KindString},
		{Name: "Value", Kind: data.KindFloat},
	}
	if _, err := cat.Define("Events", schema); err != nil {
		t.Fatal(err)
	}
	tb := data.NewTable(schema)
	for i := 0; i < 200; i++ {
		tb.Append(data.Row{
			data.Int(int64(i)),
			data.String_([]string{"us", "eu", "asia"}[i%3]),
			data.Float(float64(i % 89)),
		})
	}
	if _, err := cat.BulkUpdate("Events", fixtures.Epoch, tb); err != nil {
		t.Fatal(err)
	}
	cat.SetScaleFactor("Events", 50_000)
	eng := core.NewEngine(core.Config{
		ClusterName: "mini",
		Catalog:     cat,
		ClusterCfg:  cluster.Config{Capacity: 100},
		Selection:   analysis.SelectionConfig{UseBigSubs: true},
	})
	eng.OnboardVC("vc1")
	return eng, cat
}

const miniQuery = `p = SELECT * FROM Events WHERE Value > 40;
r = SELECT Region, COUNT(*) AS n FROM p GROUP BY Region;
OUTPUT r TO "out/r";`

// primeReuse runs the query enough times to select and materialize its view.
func primeReuse(t *testing.T, eng *core.Engine, clock *time.Time) {
	t.Helper()
	for i := 0; i < 3; i++ {
		submit(t, eng, fmt.Sprintf("prime-%d", i), clock)
	}
	eng.RunAnalysis(fixtures.Epoch.Add(-time.Hour), clock.Add(time.Hour))
	// Builder.
	submit(t, eng, "builder", clock)
}

func submit(t *testing.T, eng *core.Engine, id string, clock *time.Time) *core.JobRun {
	t.Helper()
	run, err := eng.CompileAndExecute(workload.JobInput{
		ID: id, Cluster: "mini", VC: "vc1", Pipeline: "p", Runtime: "r1",
		Script: miniQuery, Submit: *clock, OptIn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	*clock = clock.Add(time.Minute)
	return run
}

func TestBulkUpdateInvalidatesViews(t *testing.T) {
	eng, cat := miniWorld(t)
	clock := fixtures.Epoch
	primeReuse(t, eng, &clock)

	// Reuse works against the current version.
	if run := submit(t, eng, "reuser", &clock); len(run.Compile.Matched) != 1 {
		t.Fatalf("expected reuse before bulk update, matched=%d", len(run.Compile.Matched))
	}

	// Bulk update: new GUID. The old view no longer matches; the first job
	// on the new version rebuilds.
	ver, _ := cat.Latest("Events")
	if _, err := cat.BulkUpdate("Events", clock, ver.Table.Clone()); err != nil {
		t.Fatal(err)
	}
	run := submit(t, eng, "after-update", &clock)
	if len(run.Compile.Matched) != 0 {
		t.Error("stale view reused after bulk update")
	}
	if len(run.Compile.Proposed) != 1 {
		t.Errorf("expected rebuild on new version, proposed=%d", len(run.Compile.Proposed))
	}
	// And the next job reuses the fresh artifact.
	run2 := submit(t, eng, "after-update-2", &clock)
	if len(run2.Compile.Matched) != 1 {
		t.Error("fresh view not reused")
	}
}

func TestGDPRForgetInvalidatesViews(t *testing.T) {
	eng, cat := miniWorld(t)
	clock := fixtures.Epoch
	primeReuse(t, eng, &clock)

	ver, _ := cat.Latest("Events")
	// Forget request: drop user 7 and rotate the GUID.
	if _, err := cat.Forget(ver.GUID, clock, func(r data.Row) bool { return r[0].I != 7 }); err != nil {
		t.Fatal(err)
	}
	run := submit(t, eng, "post-forget", &clock)
	if len(run.Compile.Matched) != 0 {
		t.Error("view over forgotten data reused")
	}
	// Results must not contain the forgotten subject (indirectly: row counts
	// reflect the filtered version).
	if run.Exec.Table.NumRows() == 0 {
		t.Error("post-forget query returned nothing")
	}
}

func TestViewTTLExpiry(t *testing.T) {
	cat := catalog.New()
	schema := data.Schema{{Name: "Id", Kind: data.KindInt}, {Name: "Value", Kind: data.KindFloat}}
	_, _ = cat.Define("D", schema)
	tb := data.NewTable(schema)
	for i := 0; i < 100; i++ {
		tb.Append(data.Row{data.Int(int64(i)), data.Float(float64(i))})
	}
	_, _ = cat.BulkUpdate("D", fixtures.Epoch, tb)
	cat.SetScaleFactor("D", 50_000)

	eng := core.NewEngine(core.Config{
		ClusterName: "mini",
		Catalog:     cat,
		ClusterCfg:  cluster.Config{Capacity: 100},
	})
	eng.Store.SetTTL(time.Hour) // short TTL for the test
	eng.OnboardVC("vc1")
	clock := fixtures.Epoch
	q := `p = SELECT * FROM D WHERE Value > 10; r = SELECT COUNT(*) AS n FROM p GROUP BY Id HAVING n > 0; OUTPUT r TO "o";`
	sub := func(id string) *core.JobRun {
		run, err := eng.CompileAndExecute(workload.JobInput{
			ID: id, Cluster: "mini", VC: "vc1", Pipeline: "p", Runtime: "r1",
			Script: q, Submit: clock, OptIn: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		clock = clock.Add(5 * time.Minute)
		return run
	}
	sub("a")
	sub("b")
	eng.RunAnalysis(fixtures.Epoch.Add(-time.Hour), clock.Add(time.Hour))
	sub("builder")
	if run := sub("reuser"); len(run.Compile.Matched) != 1 {
		t.Fatalf("expected reuse within TTL")
	}
	// Jump past the TTL: the artifact expires; next job rebuilds.
	clock = clock.Add(2 * time.Hour)
	eng.SetClock(clock)
	eng.Store.GC()
	run := sub("late")
	if len(run.Compile.Matched) != 0 {
		t.Error("expired view reused")
	}
	if len(run.Compile.Proposed) == 0 {
		t.Error("expected rebuild after expiry")
	}
}

func TestAnnotationsFileDebugFlow(t *testing.T) {
	// §2.3: "in case of a customer incident, we can reproduce the compute
	// reuse behavior by compiling a job with the annotations file."
	eng, _ := miniWorld(t)
	clock := fixtures.Epoch
	primeReuse(t, eng, &clock)
	run := submit(t, eng, "probe", &clock)
	blob, err := eng.Insights.ExportAnnotationsFile(run.Compile.Tag)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(blob, string(run.Compile.Tag)) {
		t.Error("annotations file missing tag")
	}

	// A FRESH engine over the same catalog reproduces the reuse decisions
	// from the imported file alone (no workload analysis).
	eng2 := core.NewEngine(core.Config{
		ClusterName: "mini",
		Catalog:     eng.Catalog,
		ClusterCfg:  cluster.Config{Capacity: 100},
	})
	eng2.OnboardVC("vc1")
	if _, err := eng2.Insights.ImportAnnotationsFile(blob); err != nil {
		t.Fatal(err)
	}
	run2, err := eng2.CompileAndExecute(workload.JobInput{
		ID: "repro", Cluster: "mini", VC: "vc1", Pipeline: "p", Runtime: "r1",
		Script: miniQuery, Submit: clock, OptIn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run2.Compile.Proposed) != 1 {
		t.Errorf("imported annotations did not reproduce the build decision: %d", len(run2.Compile.Proposed))
	}
}

func TestConcurrentSubmissionCannotReuseUnsealedView(t *testing.T) {
	eng, _ := miniWorld(t)
	clock := fixtures.Epoch
	for i := 0; i < 3; i++ {
		submit(t, eng, fmt.Sprintf("w%d", i), &clock)
	}
	eng.RunAnalysis(fixtures.Epoch.Add(-time.Hour), clock.Add(time.Hour))

	// The builder runs; its view seals a bit after submission. A job
	// compiled one second later must neither rebuild (lock) nor reuse
	// (unsealed).
	builderSubmit := clock
	run1, err := eng.CompileAndExecute(workload.JobInput{
		ID: "builder", Cluster: "mini", VC: "vc1", Pipeline: "p", Runtime: "r1",
		Script: miniQuery, Submit: builderSubmit, OptIn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run1.Compile.Proposed) != 1 {
		t.Fatalf("builder did not build: %d", len(run1.Compile.Proposed))
	}
	run2, err := eng.CompileAndExecute(workload.JobInput{
		ID: "concurrent", Cluster: "mini", VC: "vc1", Pipeline: "p", Runtime: "r1",
		Script: miniQuery, Submit: builderSubmit.Add(time.Second), OptIn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run2.Compile.Matched) != 0 {
		t.Error("concurrent job reused an unsealed view")
	}
	if len(run2.Compile.Proposed) != 0 {
		t.Error("concurrent job rebuilt a locked view")
	}
	// Much later the view is sealed and reusable.
	late, err := eng.CompileAndExecute(workload.JobInput{
		ID: "late", Cluster: "mini", VC: "vc1", Pipeline: "p", Runtime: "r1",
		Script: miniQuery, Submit: builderSubmit.Add(2 * time.Hour), OptIn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(late.Compile.Matched) != 1 {
		t.Error("sealed view not reused later")
	}
}

func TestWorkloadDriftStopsMaterialization(t *testing.T) {
	// §2.4 just-in-time views: "if the workload changes and a selected
	// subexpression is no longer found in the workload then it will
	// automatically stop being materialized."
	eng, _ := miniWorld(t)
	clock := fixtures.Epoch
	primeReuse(t, eng, &clock)
	if run := submit(t, eng, "still-hot", &clock); len(run.Compile.Matched) != 1 {
		t.Fatal("reuse not primed")
	}

	// The workload drifts: a later analysis window contains only OTHER jobs.
	driftStart := clock
	other := `r = SELECT Region, MAX(Value) AS peak FROM Events GROUP BY Region; OUTPUT r TO "out/other";`
	for i := 0; i < 3; i++ {
		if _, err := eng.CompileAndExecute(workload.JobInput{
			ID: fmt.Sprintf("drift-%d", i), Cluster: "mini", VC: "vc1", Pipeline: "q", Runtime: "r1",
			Script: other, Submit: clock, OptIn: true,
		}); err != nil {
			t.Fatal(err)
		}
		clock = clock.Add(time.Minute)
	}
	eng.RunAnalysis(driftStart, clock.Add(time.Hour))

	// Past the view TTL, the old query's artifact is gone AND no new spool
	// is proposed: its annotations were dropped with the drift.
	clock = clock.Add(8 * 24 * time.Hour)
	eng.SetClock(clock)
	eng.Store.GC()
	run := submit(t, eng, "post-drift", &clock)
	if len(run.Compile.Matched) != 0 {
		t.Error("expired artifact reused")
	}
	if len(run.Compile.Proposed) != 0 {
		t.Errorf("drifted subexpression still materialized: %d spools", len(run.Compile.Proposed))
	}
}

// twoBranchBody has two independent recurring branches, so one job can stage
// TWO views at once — the shape that catches a failJob that only cleans up
// the first staged view.
const twoBranchBody = `a = SELECT * FROM Events WHERE Value > 40;
b = SELECT Region, COUNT(*) AS n FROM a GROUP BY Region;
c = SELECT * FROM Events WHERE Value < 20;
d = SELECT Region, COUNT(*) AS n FROM c GROUP BY Region;
r = SELECT * FROM b UNION ALL SELECT * FROM d;
`

// TestFailJobAbandonsEveryStagedView: a job that stages multiple views and
// then fails (here: publishing to an undefined cooked dataset) must abandon
// every staged view and release every creation lock — otherwise the failed
// job wedges those signatures for all later producers.
func TestFailJobAbandonsEveryStagedView(t *testing.T) {
	eng, cat := miniWorld(t)
	clock := fixtures.Epoch
	okScript := twoBranchBody + `OUTPUT r TO "out/two";`
	badScript := twoBranchBody + `OUTPUT r TO "dataset:Nope";`

	submitScript := func(id, script string) (*core.JobRun, error) {
		run, err := eng.CompileAndExecute(workload.JobInput{
			ID: id, Cluster: "mini", VC: "vc1", Pipeline: "p", Runtime: "r1",
			Script: script, Submit: clock, OptIn: true,
		})
		clock = clock.Add(time.Minute)
		return run, err
	}

	// Annotate both branch aggregates directly (bypassing nightly selection,
	// which would collapse them into one big-sub candidate): the compiler
	// looks up annotations by the job tag and proposes a spool per annotated
	// recurring signature, so the failing job stages TWO views.
	signer := &signature.Signer{EngineVersion: "mini/r1"}
	planFor := func(script string) plan.Node {
		t.Helper()
		parsed, err := sqlparser.Parse(script)
		if err != nil {
			t.Fatal(err)
		}
		binder := &plan.Binder{Catalog: cat}
		outs, err := binder.BindScript(parsed)
		if err != nil || len(outs) != 1 {
			t.Fatalf("bind: %v (%d outputs)", err, len(outs))
		}
		// The compiler tags and signs the rewritten plan, not the raw binding.
		return optimizer.Rewrite(plan.CloneNode(outs[0]))
	}
	annotate := func(script string) (signature.Tag, []insights.Annotation) {
		t.Helper()
		p := planFor(script)
		var anns []insights.Annotation
		for _, sub := range signer.Subexpressions(p) {
			if sub.Op != "Aggregate" || sub.Eligibility != signature.EligibleOK {
				continue
			}
			anns = append(anns, insights.Annotation{
				Recurring:     sub.Recurring,
				VC:            "vc1",
				ExpectedRows:  3,
				ExpectedBytes: 1 << 20,
				ExpectedWork:  100,
				Utility:       100,
			})
		}
		tag := signer.JobTag(p)
		eng.Insights.PublishAnnotations(tag, anns)
		return tag, anns
	}
	_, anns := annotate(badScript)
	tagOK, _ := annotate(okScript)
	if len(anns) != 2 {
		t.Fatalf("need 2 branch annotations to stage multiple views, got %d", len(anns))
	}

	// The failing job stages all annotated views, executes, then dies
	// publishing its cooked output.
	if _, err := submitScript("multi-fail", badScript); err == nil ||
		!strings.Contains(err.Error(), "publishing cooked dataset") {
		t.Fatalf("expected publish failure, got %v", err)
	}

	if n := eng.Insights.LockCount(); n != 0 {
		t.Errorf("failed job left %d view-creation locks held", n)
	}
	if n := eng.Store.PendingViews(); n != 0 {
		t.Errorf("failed job left %d staged views pending", n)
	}
	if n := eng.Store.Count(); n != 0 {
		t.Errorf("failed job sealed %d views", n)
	}
	if err := eng.Store.AuditBytes(); err != nil {
		t.Errorf("byte accounting inconsistent after failure: %v", err)
	}
	if b := eng.Store.UsedBytes("vc1"); b != 0 {
		t.Errorf("abandoned views still charge %d bytes", b)
	}

	// Every signature the failed job touched must be rebuildable: the next
	// producer acquires all the locks and stages all the views.
	rebuild, err := submitScript("rebuilder", okScript)
	if err != nil {
		t.Fatal(err)
	}
	annsOK, _ := eng.Insights.FetchAnnotations(tagOK)
	if len(rebuild.Compile.Proposed) != len(annsOK) {
		t.Fatalf("rebuilder proposed %d of %d views — a lock or artifact is wedged",
			len(rebuild.Compile.Proposed), len(annsOK))
	}
}

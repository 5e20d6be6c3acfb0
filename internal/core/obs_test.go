package core_test

import (
	"strings"
	"testing"
	"time"

	"cloudviews/internal/cluster"
	"cloudviews/internal/core"
	"cloudviews/internal/explain"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/obs"
	"cloudviews/internal/workload"
)

// TestJobTraceCoverage asserts the acceptance-level trace contract: a
// submitted job's trace covers parse→bind→insights→optimize→queue→execute
// (→materialize→seal for builders), and the job's reuse decisions are in its
// explain record.
func TestJobTraceCoverage(t *testing.T) {
	eng, _ := miniWorld(t)
	clock := fixtures.Epoch
	for i := 0; i < 3; i++ {
		submit(t, eng, "prime-"+string(rune('a'+i)), &clock)
	}
	eng.RunAnalysis(fixtures.Epoch.Add(-time.Hour), clock.Add(time.Hour))

	builder := submit(t, eng, "builder", &clock)
	if builder.Trace == nil {
		t.Fatal("observability on by default: builder must carry a trace")
	}
	for _, span := range []string{"parse", "bind", "insights", "optimize", "queue", "execute", "materialize", "seal"} {
		if !builder.Trace.HasSpan(span) {
			t.Errorf("builder trace missing span %q:\n%s", span, builder.Trace.Render())
		}
	}
	if !hasEvent(builder.Trace.Events(), "view.proposed") {
		t.Errorf("builder trace has no view.proposed event:\n%s", builder.Trace.Render())
	}

	clock = clock.Add(2 * time.Hour) // past the seal point
	reuser := submit(t, eng, "reuser", &clock)
	if len(reuser.Compile.Matched) != 1 {
		t.Fatalf("reuse not primed, matched=%d", len(reuser.Compile.Matched))
	}
	for _, span := range []string{"parse", "bind", "insights", "optimize", "queue", "execute"} {
		if !reuser.Trace.HasSpan(span) {
			t.Errorf("reuser trace missing span %q:\n%s", span, reuser.Trace.Render())
		}
	}
	if !hasDecision(reuser.Explain, explain.ReasonMatched) {
		t.Errorf("reuser has no matched decision: %+v", reuser.Explain.Decisions())
	}
	if r := reuser.Trace.Render(); !strings.Contains(r, "trace reuser") {
		t.Errorf("render missing job id:\n%s", r)
	}
}

func hasEvent(evs []obs.Event, kind string) bool {
	for _, e := range evs {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

func hasDecision(rec *explain.Recorder, reason explain.Reason) bool {
	for _, d := range rec.Decisions() {
		if d.Reason == reason {
			return true
		}
	}
	return false
}

// TestMetricsExportDeterministic runs an identical serial workload on two
// fresh engines and requires byte-identical registry exports — the stable-
// ordering half of the observability acceptance criteria.
func TestMetricsExportDeterministic(t *testing.T) {
	export := func() string {
		eng, _ := miniWorld(t)
		clock := fixtures.Epoch
		primeReuse(t, eng, &clock)
		submit(t, eng, "reuser", &clock)
		return eng.Metrics.ExportString()
	}
	a, b := export(), export()
	if a != b {
		t.Fatalf("metrics export not deterministic:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	for _, want := range []string{
		"cloudviews_jobs_total 5",
		"cloudviews_views_created_total 1",
		"cloudviews_views_reused_total 1",
		"cloudviews_insights_fetches_total",
		`cloudviews_view_bytes{vc="vc1"}`,
	} {
		if !strings.Contains(a, want) {
			t.Errorf("export missing %q:\n%s", want, a)
		}
	}
}

// TestObservabilityDisabled pins the opt-out: no registry, no traces.
func TestObservabilityDisabled(t *testing.T) {
	eng, _ := miniWorld(t)
	dark := core.NewEngine(core.Config{
		ClusterName:          "mini",
		Catalog:              eng.Catalog,
		ClusterCfg:           cluster.Config{Capacity: 100},
		DisableObservability: true,
	})
	dark.OnboardVC("vc1")
	run, err := dark.CompileAndExecute(workload.JobInput{
		ID: "dark-1", Cluster: "mini", VC: "vc1", Pipeline: "p", Runtime: "r1",
		Script: miniQuery, Submit: fixtures.Epoch, OptIn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Trace != nil {
		t.Error("DisableObservability must suppress traces")
	}
	if dark.Metrics != nil {
		t.Error("DisableObservability must suppress the registry")
	}
	if dark.Telemetry != nil {
		t.Error("DisableObservability must suppress the telemetry collector")
	}
	if m, err := dark.RunDay(0, nil); err != nil {
		t.Fatal(err)
	} else if m.Alerts != nil {
		t.Error("disabled telemetry must surface no alerts")
	}
}

// TestExpiredViewRebuiltWithoutGC is the engine-level regression test for
// the blocked-signature bug: after TTL expiry and WITHOUT any GC() call the
// next job must rebuild the view, and the one after it must reuse it.
func TestExpiredViewRebuiltWithoutGC(t *testing.T) {
	eng, _ := miniWorld(t)
	eng.Store.SetTTL(time.Hour)
	clock := fixtures.Epoch
	primeReuse(t, eng, &clock)
	if run := submit(t, eng, "reuser", &clock); len(run.Compile.Matched) != 1 {
		t.Fatalf("reuse not primed, matched=%d", len(run.Compile.Matched))
	}

	// Past the TTL — deliberately no eng.Store.GC().
	clock = clock.Add(2 * time.Hour)
	eng.SetClock(clock)

	rebuilder := submit(t, eng, "rebuilder", &clock)
	if len(rebuilder.Compile.Matched) != 0 {
		t.Error("expired view reused")
	}
	if len(rebuilder.Compile.Proposed) != 1 {
		t.Fatalf("expired signature still blocked without GC: proposed=%d", len(rebuilder.Compile.Proposed))
	}
	// The rejection reason must be visible in the rebuilder's decisions.
	if !hasDecision(rebuilder.Explain, explain.ReasonExpired) {
		t.Errorf("no expired decision: %+v", rebuilder.Explain.Decisions())
	}

	clock = clock.Add(30 * time.Minute) // past the new seal point, within TTL
	if run := submit(t, eng, "reuser-2", &clock); len(run.Compile.Matched) != 1 {
		t.Error("rebuilt view not reused")
	}
}

// TestViewLockReleasedAfterJobFailure is the lock-lifecycle regression test:
// a job that acquires the view-creation lock, stages and materializes the
// view, and then FAILS (publishing its cooked output to an unknown dataset)
// must release both the half-built artifact and the lock, so the next job
// can build the view.
func TestViewLockReleasedAfterJobFailure(t *testing.T) {
	eng, _ := miniWorld(t)
	clock := fixtures.Epoch
	for i := 0; i < 3; i++ {
		submit(t, eng, "prime-"+string(rune('a'+i)), &clock)
	}
	eng.RunAnalysis(fixtures.Epoch.Add(-time.Hour), clock.Add(time.Hour))

	// Same logical query (the OUTPUT target is excluded from recurring
	// signatures, so this job shares the primed tag and gets the build
	// annotation) but its output publishes to an undefined dataset, which
	// fails AFTER execution — after the spool materialized.
	failing := `p = SELECT * FROM Events WHERE Value > 40;
r = SELECT Region, COUNT(*) AS n FROM p GROUP BY Region;
OUTPUT r TO "dataset:Nope";`
	_, err := eng.CompileAndExecute(workload.JobInput{
		ID: "doomed", Cluster: "mini", VC: "vc1", Pipeline: "p", Runtime: "r1",
		Script: failing, Submit: clock, OptIn: true,
	})
	if err == nil || !strings.Contains(err.Error(), "publishing cooked dataset") {
		t.Fatalf("expected cook failure, got %v", err)
	}
	clock = clock.Add(time.Minute)

	// The doomed job must have staged a view and abandoned it on failure.
	if st := eng.Store.Snapshot(); st.Abandoned != 1 {
		t.Fatalf("failed job did not abandon its view: %+v", st)
	}

	// Lock and signature must be free: the next job builds...
	rescuer := submit(t, eng, "rescuer", &clock)
	if len(rescuer.Compile.Proposed) != 1 {
		t.Fatalf("lock still wedged after job failure: proposed=%d", len(rescuer.Compile.Proposed))
	}
	// ...and later jobs reuse.
	clock = clock.Add(2 * time.Hour)
	if run := submit(t, eng, "reuser", &clock); len(run.Compile.Matched) != 1 {
		t.Error("view built by rescuer not reused")
	}

	if eng.Metrics.Counter("cloudviews_jobs_failed_total").Value() != 1 {
		t.Error("failed-jobs counter not bumped")
	}
	if eng.Metrics.Counter("cloudviews_views_abandoned_total").Value() != 1 {
		t.Error("abandoned-views counter not bumped")
	}
}

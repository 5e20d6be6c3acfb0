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
	"cloudviews/internal/explain"
	"cloudviews/internal/fault"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/workload"
)

// faultMiniWorld is miniWorld with an injector: the same single-dataset
// engine, plus deterministic faults at the given rates.
func faultMiniWorld(t *testing.T, fcfg fault.Config) *core.Engine {
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
		Faults:      fcfg,
	})
	eng.OnboardVC("vc1")
	return eng
}

func faultSubmit(t *testing.T, eng *core.Engine, id string, clock *time.Time) *core.JobRun {
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

// primeFaultReuse drives the engine to a sealed, reusable view: prime jobs,
// analysis, builder, plus clock headroom for the seal to take effect.
func primeFaultReuse(t *testing.T, eng *core.Engine, clock *time.Time) *core.JobRun {
	t.Helper()
	for i := 0; i < 3; i++ {
		faultSubmit(t, eng, fmt.Sprintf("prime-%d", i), clock)
	}
	eng.RunAnalysis(fixtures.Epoch.Add(-time.Hour), clock.Add(time.Hour))
	builder := faultSubmit(t, eng, "builder", clock)
	*clock = clock.Add(time.Hour)
	return builder
}

// TestViewReadFaultFallsBackToRecompute: with every view read failing, a
// consumer that matched a sealed view transparently recomputes the
// subexpression — same answer, zero job failures. Reuse is a pure
// optimization; losing it can only cost time.
func TestViewReadFaultFallsBackToRecompute(t *testing.T) {
	eng := faultMiniWorld(t, fault.Config{Seed: 5, Rates: map[fault.Point]float64{fault.ViewRead: 1}})
	clock := fixtures.Epoch
	builder := primeFaultReuse(t, eng, &clock)
	if len(builder.Compile.Proposed) != 1 {
		t.Fatalf("builder proposed %d views", len(builder.Compile.Proposed))
	}

	consumer := faultSubmit(t, eng, "consumer", &clock)
	if len(consumer.Compile.Matched) != 1 {
		t.Fatalf("consumer matched %d views (compile-time reuse should still happen)", len(consumer.Compile.Matched))
	}
	if n := len(consumer.Exec.FallbackSigs); n != 1 {
		t.Fatalf("reuse fallbacks = %d, want 1", n)
	}
	if gf, wf := consumer.Exec.Table.Fingerprint(), builder.Exec.Table.Fingerprint(); gf != wf {
		t.Error("fallback recompute changed the job's answer")
	}
	if !hasDecision(consumer.Explain, explain.ReasonFallback) {
		t.Errorf("no fallback decision: %+v", consumer.Explain.Decisions())
	}
	if export := eng.Metrics.ExportString(); !strings.Contains(export, "cloudviews_reuse_fallbacks_total 1") {
		t.Error("metrics export missing reuse-fallback counter")
	}
}

// TestSpoolWriteFaultAbandonsView: with every spool write failing, the
// builder's job still succeeds (spooling is off the result path), but the
// half-written artifact is abandoned at seal time and the signature stays
// buildable — the NEXT producer stages it again.
func TestSpoolWriteFaultAbandonsView(t *testing.T) {
	eng := faultMiniWorld(t, fault.Config{Seed: 5, Rates: map[fault.Point]float64{fault.SpoolWrite: 1}})
	clock := fixtures.Epoch
	builder := primeFaultReuse(t, eng, &clock)
	if len(builder.Compile.Proposed) != 1 {
		t.Fatalf("builder proposed %d views", len(builder.Compile.Proposed))
	}
	failed := 0
	for _, ev := range builder.Trace.Events() {
		if ev.Kind == "spool.write.failed" {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("spool.write.failed events = %d, want 1", failed)
	}

	if n := eng.Store.Count(); n != 0 {
		t.Errorf("failed spool still sealed %d views", n)
	}
	if n := eng.Store.PendingViews(); n != 0 {
		t.Errorf("%d staged views left pending after seal failure", n)
	}
	if n := eng.Insights.LockCount(); n != 0 {
		t.Errorf("%d creation locks left held after seal failure", n)
	}
	if err := eng.Store.AuditBytes(); err != nil {
		t.Errorf("byte accounting inconsistent: %v", err)
	}

	// The signature is not wedged: the next opted-in job proposes the build
	// again (and its spool write fails again, at rate 1 — but never the job).
	rebuilder := faultSubmit(t, eng, "rebuilder", &clock)
	if len(rebuilder.Compile.Proposed) != 1 {
		t.Fatalf("rebuilder proposed %d views — signature wedged", len(rebuilder.Compile.Proposed))
	}
	if gf, wf := rebuilder.Exec.Table.Fingerprint(), builder.Exec.Table.Fingerprint(); gf != wf {
		t.Error("spool failure changed the job's answer")
	}
}

// TestJobFaultRetriesWithRecompile: with every first attempt crashing, jobs
// retry with a fresh compilation — the attempt count and retry delay are
// reported, the crashed attempt's staged views and locks are torn down, and
// reuse still converges: the retried builder seals its view and the retried
// consumer reuses it.
func TestJobFaultRetriesWithRecompile(t *testing.T) {
	// Every attempt but the last crashes; the final one never does —
	// injection alone can never permanently fail a job.
	eng := faultMiniWorld(t, fault.Config{
		Seed:  5,
		Rates: map[fault.Point]float64{fault.JobFail: 1},
	})
	const attempts = fault.DefaultMaxJobAttempts
	clock := fixtures.Epoch
	builder := primeFaultReuse(t, eng, &clock)

	if builder.Attempts != attempts {
		t.Fatalf("builder attempts = %d, want %d", builder.Attempts, attempts)
	}
	if builder.RetryDelay <= 0 {
		t.Error("retry delay not charged")
	}
	if len(builder.Compile.Proposed) != 1 {
		t.Fatalf("retried builder proposed %d views", len(builder.Compile.Proposed))
	}
	var retries, abandoned int
	for _, ev := range builder.Trace.Events() {
		switch ev.Kind {
		case "job.retry":
			retries++
		case "view.abandoned":
			if strings.Contains(ev.Detail, "reason=job-retry") {
				abandoned++
			}
		}
	}
	if retries != attempts-1 || abandoned != attempts-1 {
		t.Errorf("trace: %d job.retry, %d view.abandoned(job-retry); want %d of each", retries, abandoned, attempts-1)
	}
	if n := eng.Insights.LockCount(); n != 0 {
		t.Errorf("%d locks held after retried builder sealed", n)
	}

	consumer := faultSubmit(t, eng, "consumer", &clock)
	if consumer.Attempts != attempts {
		t.Errorf("consumer attempts = %d, want %d", consumer.Attempts, attempts)
	}
	if len(consumer.Compile.Matched) != 1 {
		t.Errorf("retried consumer matched %d views", len(consumer.Compile.Matched))
	}
	if gf, wf := consumer.Exec.Table.Fingerprint(), builder.Exec.Table.Fingerprint(); gf != wf {
		t.Error("job retry changed the answer")
	}
}

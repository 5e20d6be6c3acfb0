package core_test

import (
	"math"
	"testing"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/core"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/telemetry"
	"cloudviews/internal/workload"
)

// newSystemSLO is newSystem with a custom watchdog rule list.
func newSystemSLO(t *testing.T, rules []telemetry.Rule) (*core.Engine, *workload.Generator) {
	t.Helper()
	cat := catalog.New()
	gen := workload.NewGenerator(cat, smallProfile())
	if err := gen.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	var vcCfgs []cluster.VCConfig
	for _, vc := range gen.VCNames() {
		vcCfgs = append(vcCfgs, cluster.VCConfig{Name: vc, Tokens: 60})
	}
	eng := core.NewEngine(core.Config{
		ClusterName: "TestC",
		Catalog:     cat,
		ClusterCfg:  cluster.Config{Capacity: 400, VCs: vcCfgs},
		Selection:   analysis.SelectionConfig{ScheduleAware: true, UseBigSubs: true},
		SLORules:    rules,
	})
	return eng, gen
}

// TestCriticalPathReconcilesOverWorkload is the acceptance property test: for
// every job of a generated multi-day workload (including view builders and
// reusers), the critical-path analyzer's per-phase attribution sums exactly to
// the trace's wall span.
func TestCriticalPathReconcilesOverWorkload(t *testing.T) {
	eng, gen := newSystem(t)
	for _, vc := range gen.VCNames() {
		eng.OnboardVC(vc)
	}
	analyzed := 0
	for day := 0; day < 3; day++ {
		if day > 0 {
			if err := gen.AdvanceDay(day); err != nil {
				t.Fatal(err)
			}
		}
		for _, in := range gen.JobsForDay(day) {
			run, err := eng.CompileAndExecute(in)
			if err != nil {
				t.Fatal(err)
			}
			bd := telemetry.Analyze(run.Trace)
			var sum float64
			phases := make(map[string]float64)
			bd.ForEachPhase(func(phase string, sec float64) {
				sum += sec
				phases[phase] = sec
			})
			tol := 1e-9 * math.Max(1, bd.WallSec)
			if diff := math.Abs(sum - bd.WallSec); diff > tol {
				t.Fatalf("job %s: phases sum %.12f != wall %.12f (diff %g)\nphases: %v\ntrace:\n%s",
					in.ID, sum, bd.WallSec, diff, phases, run.Trace.Render())
			}
			if bd.WallSec <= 0 {
				t.Fatalf("job %s: wall span %v, want > 0", in.ID, bd.WallSec)
			}
			analyzed++
		}
		to := fixtures.Epoch.AddDate(0, 0, day+1)
		eng.RunAnalysis(to.Add(-7*24*time.Hour), to)
	}
	if analyzed == 0 {
		t.Fatal("no jobs analyzed")
	}
}

// TestRunDayCollectsTelemetry pins the tentpole wiring: RunDay feeds the
// collector (per-day critical path including the cluster queue overlay, day
// series from the registry snapshot) and the default watchdog stays silent on
// a clean run.
func TestRunDayCollectsTelemetry(t *testing.T) {
	eng, gen := newSystem(t)
	for _, vc := range gen.VCNames() {
		eng.OnboardVC(vc)
	}
	for day := 0; day < 2; day++ {
		if day > 0 {
			if err := gen.AdvanceDay(day); err != nil {
				t.Fatal(err)
			}
		}
		jobs := gen.JobsForDay(day)
		m, err := eng.RunDay(day, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Alerts) != 0 {
			t.Errorf("day %d: default watchdog fired on a clean run: %v", day, m.Alerts)
		}
		to := fixtures.Epoch.AddDate(0, 0, day+1)
		eng.RunAnalysis(to.Add(-7*24*time.Hour), to)
	}

	rt := eng.Telemetry.Snapshot()
	if rt == nil || len(rt.Days) != 2 {
		t.Fatalf("telemetry days = %+v", rt)
	}
	d := rt.Days[0]
	if d.Jobs == 0 || d.WallSec <= 0 || d.Phase["execute"] <= 0 {
		t.Errorf("day 0 aggregates not populated: %+v", d)
	}
	// The cluster queue overlay is charged through AddQueueWait, not the
	// data-plane trace; a loaded day must show queue time.
	if d.Phase["queue"] <= 0 {
		t.Errorf("day 0 has no queue attribution: %v", d.Phase)
	}
	if len(d.VCNames) == 0 {
		t.Error("day 0 has no per-VC breakdown")
	}
	for _, name := range []string{
		telemetry.SeriesJobs, telemetry.SeriesHitRate, telemetry.SeriesQueueLenAvg,
		telemetry.SeriesStoreLiveViews, telemetry.SeriesRepoJobs,
		"cloudviews_jobs_total",
	} {
		s := rt.SeriesByName(name)
		if s == nil || s.Count != 2 {
			t.Errorf("series %q missing or short: %+v", name, s)
		}
	}
	if jobs := rt.SeriesByName(telemetry.SeriesJobs); jobs != nil && jobs.Last != float64(rt.Days[1].Jobs) {
		t.Errorf("day_jobs last %v != day 1 jobs %d", jobs.Last, rt.Days[1].Jobs)
	}
	if len(rt.Alerts) != 0 {
		t.Errorf("clean run accumulated alerts: %v", rt.Alerts)
	}
}

// TestWatchdogFiresOnStorageBudget forces the storage SLO over budget (1 byte
// per VC) and requires the seeded regression scenario to page — the other
// half of the "fires there, silent on clean runs" acceptance criterion.
func TestWatchdogFiresOnStorageBudget(t *testing.T) {
	eng, gen := newSystemSLO(t, append(telemetry.DefaultRules(), telemetry.StorageBudgetRule(1)))
	for _, vc := range gen.VCNames() {
		eng.OnboardVC(vc)
	}
	var fired []telemetry.Alert
	for day := 0; day < 3; day++ {
		if day > 0 {
			if err := gen.AdvanceDay(day); err != nil {
				t.Fatal(err)
			}
		}
		m, err := eng.RunDay(day, gen.JobsForDay(day))
		if err != nil {
			t.Fatal(err)
		}
		fired = append(fired, m.Alerts...)
		to := fixtures.Epoch.AddDate(0, 0, day+1)
		eng.RunAnalysis(to.Add(-7*24*time.Hour), to)
	}
	if len(fired) == 0 {
		t.Fatal("storage budget of 1 byte never paged across a view-building window")
	}
	sawBudget := false
	for _, a := range fired {
		if a.Rule == "storage-budget" {
			sawBudget = true
			if a.Severity != telemetry.SevPage {
				t.Errorf("storage-budget alert severity = %s, want page", a.Severity)
			}
			if a.Value <= 1 {
				t.Errorf("storage-budget alert value = %v, want > budget", a.Value)
			}
		}
	}
	if !sawBudget {
		t.Errorf("no storage-budget alert among: %v", fired)
	}
	if v := telemetry.Verdict(eng.Telemetry.Alerts()); v == "OK" {
		t.Error("verdict must report the regression")
	}
	// DayMetrics.Alerts and the collector's accumulated log must agree.
	if all := eng.Telemetry.Alerts(); len(all) != len(fired) {
		t.Errorf("collector has %d alerts, days surfaced %d", len(all), len(fired))
	}
}

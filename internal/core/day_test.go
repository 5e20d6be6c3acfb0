package core

import (
	"reflect"
	"testing"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/fault"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/repository"
	"cloudviews/internal/workload"
)

// dayWorld is a small onboarded cluster with every cluster- and data-plane
// fault point enabled, so a day's outcomes carry retries, preemptions, fault
// delay and fallbacks and not only the fault-free fields.
func dayWorld(t *testing.T) (*Engine, *workload.Generator) {
	t.Helper()
	p := workload.DefaultProfile("DayC")
	p.Pipelines, p.RawStreams, p.CookedDatasets, p.DimTables = 12, 4, 5, 2
	p.PrefixPool, p.RowsPerRawDay, p.VCs = 8, 150, 2
	cat := catalog.New()
	gen := workload.NewGenerator(cat, p)
	if err := gen.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	var vcs []cluster.VCConfig
	for _, vc := range gen.VCNames() {
		vcs = append(vcs, cluster.VCConfig{Name: vc, Tokens: 20})
	}
	e := NewEngine(Config{
		ClusterName: "DayC", Catalog: cat,
		ClusterCfg: cluster.Config{Capacity: 120, VCs: vcs},
		Selection:  analysis.SelectionConfig{ScheduleAware: true, UseBigSubs: true},
		Faults: fault.Config{Seed: 11, Rates: map[fault.Point]float64{
			fault.StageFail: 0.2, fault.BonusPreempt: 0.3, fault.ViewRead: 0.3, fault.JobFail: 0.1,
		}},
	})
	for _, vc := range gen.VCNames() {
		e.OnboardVC(vc)
	}
	return e, gen
}

// TestRunDayRecordsCarryTheSchedule: RunDay builds one Outcome per job, files
// it with SetOutcome and sums the day from it. Against a lockstep world that
// runs the same day by hand and writes Start, End and each outcome field onto
// a copy of each job's record — what RunDay did to run.Record before the
// repository owned it — every repository record must come out the same, the
// day's Outcome must be the Add of those records' outcomes and its view counts
// their sums, and the record the job handed to Add must still read as it was
// added.
func TestRunDayRecordsCarryTheSchedule(t *testing.T) {
	viaRunDay, genA := dayWorld(t)
	byHand, genB := dayWorld(t)
	for _, w := range []struct {
		e   *Engine
		gen *workload.Generator
	}{{viaRunDay, genA}, {byHand, genB}} {
		if _, err := w.e.RunDay(0, w.gen.JobsForDay(0)); err != nil {
			t.Fatal(err)
		}
		w.e.RunAnalysis(fixtures.Epoch.AddDate(0, 0, -1), fixtures.Epoch.AddDate(0, 0, 1))
		if err := w.gen.AdvanceDay(1); err != nil {
			t.Fatal(err)
		}
	}

	m, err := viaRunDay.RunDay(1, genA.JobsForDay(1))
	if err != nil {
		t.Fatal(err)
	}

	byHand.resetCache()
	var runs []*JobRun
	var specs []cluster.JobSpec
	for _, in := range genB.JobsForDay(1) {
		run, err := byHand.CompileAndExecute(in)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
		specs = append(specs, cluster.JobSpec{
			ID: in.ID, VC: in.VC, Submit: in.Submit, Stages: run.Stages,
			Compile: run.Compile.CompileLatency + run.RetryDelay, Attempt: run.Attempts,
		})
	}
	outcomes, err := byHand.Sim.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]cluster.Outcome, len(outcomes))
	for _, o := range outcomes {
		byID[o.ID] = o
	}
	var want []*repository.JobRecord
	var sum repository.Outcome
	var built, reused int
	for _, run := range runs {
		o := byID[run.Input.ID]
		added := *run.Record
		rec := added
		rec.Start = o.Start
		rec.End = o.End
		rec.LatencySec = o.Latency.Seconds()
		rec.ProcessingSec = o.Processing
		rec.BonusSec = o.Bonus
		rec.Containers = int64(o.Containers)
		rec.InputBytes = run.Exec.InputBytes
		rec.DataReadBytes = run.Exec.TotalRead
		rec.QueueLen = int64(o.QueueLenAtStart)
		rec.JobRetries = run.Attempts - 1
		rec.StageRetries = o.StageRetries
		rec.BonusPreemptions = o.BonusPreemptions
		rec.FaultDelaySec = o.FaultDelay.Seconds() + run.RetryDelay.Seconds()
		rec.ReuseFallbacks = len(run.Exec.FallbackSigs)
		want = append(want, &rec)

		if !added.Start.Equal(run.Input.Submit) || !added.End.Equal(run.Input.Submit) || added.Outcome != (repository.Outcome{}) {
			t.Errorf("%s: the record handed to Add does not read Start = End = Submit and no outcome: %+v", rec.JobID, added)
		}
		sum.Add(rec.Outcome)
		built += rec.ViewsBuilt
		reused += rec.ViewsReused
	}

	day1 := fixtures.Epoch.AddDate(0, 0, 1)
	got := viaRunDay.Repo.JobsBetween(day1, day1.AddDate(0, 0, 1))
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("RunDay left %d records for the day, the by-hand world %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %s differs from the double write:\n got %+v\nwant %+v", want[i].JobID, got[i], want[i])
		}
		if got[i].End.Equal(got[i].Submit) || got[i].Containers == 0 {
			t.Errorf("record %s carries no schedule: %+v", got[i].JobID, got[i])
		}
	}
	if sum.StageRetries == 0 || sum.BonusPreemptions == 0 || sum.JobRetries == 0 || sum.ReuseFallbacks == 0 || reused == 0 {
		t.Errorf("the day exercised too little: %+v, %d views reused", sum, reused)
	}
	if !reflect.DeepEqual(m.Outcome, sum) {
		t.Errorf("the day's Outcome differs from the Add of the double-written records:\n got %+v\nwant %+v", m.Outcome, sum)
	}
	if m.ViewsBuilt != built || m.ViewsReused != reused {
		t.Errorf("the day's views built/reused = %d/%d, the records sum to %d/%d", m.ViewsBuilt, m.ViewsReused, built, reused)
	}
}

package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/data"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/workload"
)

const warmScript = `j = SELECT e.Region AS Region, e.Value AS Value, d.Weight AS Weight
    FROM Events AS e JOIN Dims AS d ON e.Region = d.Region WHERE e.Value > 40;
r = SELECT Region, SUM(Value) AS sv, MAX(Weight) AS mw FROM j GROUP BY Region;
OUTPUT r TO "out/warm";`

func warmInput(id string, at time.Time) workload.JobInput {
	return workload.JobInput{
		ID: id, Cluster: "warm", VC: "vc", Pipeline: "p", Runtime: "scope-r1",
		Script: warmScript, Submit: at, OptIn: true,
	}
}

// warmEngine returns an engine on the paper's path for warmScript: the VC is
// onboarded, the feedback loop has selected views, a job has built them and
// they have sealed, so the returned submission — and every resubmission of it
// — hits the plan cache and matches a view.
func warmEngine(t *testing.T) (*Engine, workload.JobInput) {
	t.Helper()
	cat := catalog.New()
	events := data.Schema{
		{Name: "Id", Kind: data.KindInt},
		{Name: "Region", Kind: data.KindString},
		{Name: "Value", Kind: data.KindFloat},
	}
	dims := data.Schema{
		{Name: "Region", Kind: data.KindString},
		{Name: "Weight", Kind: data.KindFloat},
	}
	regions := []string{"us", "eu", "asia", "latam", "mea"}
	et, dt := data.NewTable(events), data.NewTable(dims)
	for i := 0; i < 3000; i++ {
		et.Append(data.Row{data.Int(int64(i)), data.String_(regions[i%len(regions)]), data.Float(float64((i * 37) % 97))})
	}
	for i, r := range regions {
		dt.Append(data.Row{data.String_(r), data.Float(float64(i) + 0.5)})
	}
	for name, tb := range map[string]*data.Table{"Events": et, "Dims": dt} {
		if _, err := cat.Define(name, tb.Schema); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.BulkUpdate(name, fixtures.Epoch, tb); err != nil {
			t.Fatal(err)
		}
	}
	cat.SetScaleFactor("Events", 50_000)
	e := NewEngine(Config{
		ClusterName: "warm", Catalog: cat, ClusterCfg: cluster.Config{Capacity: 400},
		Selection: analysis.SelectionConfig{UseBigSubs: true},
	})
	e.OnboardVC("vc")
	submit := func(id string, at time.Time) *JobRun {
		run, err := e.CompileAndExecute(warmInput(id, at))
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	for i := 0; i < 3; i++ {
		submit(fmt.Sprintf("prime-%d", i), fixtures.Epoch.Add(time.Duration(i)*time.Second))
	}
	e.RunAnalysis(fixtures.Epoch.Add(-time.Hour), fixtures.Epoch.Add(24*time.Hour))
	if built := submit("build", fixtures.Epoch.Add(2*time.Hour)); len(built.Proposed) == 0 {
		t.Fatal("the build job proposed no view")
	}
	in := warmInput("warm", fixtures.Epoch.Add(4*time.Hour))
	if run := submit(in.ID, in.Submit); len(run.Compile.Matched) == 0 {
		t.Fatal("the warm job matched no view")
	}
	return e, in
}

// TestSharedPreparedPlanIsNeverWritten: goroutines resubmitting one script
// compile from the one normalized plan and enumeration on its plan-cache
// entry. Every job that matches a view rebuilds the plan above the ViewScan
// and chooses join algorithms, and all of that must happen on the job's own
// copy: the shared plan comes out as it went in. Run under -race (at -cpu 1,
// 2 and 4), a write would also be reported as a race with the other readers.
func TestSharedPreparedPlanIsNeverWritten(t *testing.T) {
	e, in := warmEngine(t)
	entry := pcEntry(t, e, in)
	if entry == nil || entry.prepared.Load() == nil {
		t.Fatal("the warm engine left no prepared plan on the script's entry")
	}
	prep := entry.prepared.Load()
	wantPlan := plan.Format(prep.Plan)
	wantSubs := append([]signature.Subexpr(nil), prep.Subs...)
	joins := 0
	plan.Walk(prep.Plan, func(n plan.Node) {
		if j, isJoin := n.(*plan.Join); isJoin && j.Algo == plan.JoinAuto {
			joins++
		}
	})
	if joins == 0 {
		t.Fatal("the prepared plan has no join left to the per-job physical planning")
	}
	want, err := e.CompileAndExecute(in)
	if err != nil {
		t.Fatal(err)
	}

	const workers, each = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				run, err := e.CompileAndExecute(warmInput(fmt.Sprintf("w%d-%d", w, i), in.Submit.Add(time.Duration(i)*time.Second)))
				if err != nil {
					t.Error(err)
					return
				}
				if len(run.Compile.Matched) == 0 || run.Output.Fingerprint() != want.Output.Fingerprint() {
					t.Errorf("w%d-%d: matched %d views, output equal: %v", w, i, len(run.Compile.Matched), run.Output.Fingerprint() == want.Output.Fingerprint())
					return
				}
				if plan.Format(run.Compile.Plan) != plan.Format(want.Compile.Plan) {
					t.Errorf("w%d-%d: compiled plan differs:\n%s\nwant:\n%s", w, i, plan.Format(run.Compile.Plan), plan.Format(want.Compile.Plan))
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if entry.prepared.Load() != prep {
		t.Error("the entry's prepared plan was replaced while the catalog generation stood still")
	}
	if got := plan.Format(prep.Plan); got != wantPlan {
		t.Errorf("the shared plan was rewritten:\n%s\nwas:\n%s", got, wantPlan)
	}
	if !reflect.DeepEqual(prep.Subs, wantSubs) {
		t.Error("the shared enumeration was written")
	}
	plan.Walk(prep.Plan, func(n plan.Node) {
		if j, isJoin := n.(*plan.Join); isJoin && j.Algo == plan.JoinAuto {
			joins--
		}
	})
	if joins != 0 {
		t.Errorf("%d join algorithm(s) were chosen on the shared plan", joins)
	}
}

// warmAllocCeiling bounds the allocations of one warm, onboarded,
// view-matching resubmission. Last measured: 106 (108 under -race).
// It is the unit-test-cost gate on the reuse-on path: a change that re-signs
// or re-normalizes per job goes several times past it.
const warmAllocCeiling = 130

func TestWarmResubmissionAllocCeiling(t *testing.T) {
	e, in := warmEngine(t)
	allocs := testing.AllocsPerRun(200, func() {
		run, err := e.CompileAndExecute(in)
		if err != nil || len(run.Compile.Matched) == 0 {
			t.Fatalf("warm resubmission: err=%v", err)
		}
	})
	t.Logf("%.0f allocs per warm resubmission (ceiling %d)", allocs, warmAllocCeiling)
	if allocs > warmAllocCeiling {
		t.Errorf("%.0f allocs per warm resubmission, ceiling %d", allocs, warmAllocCeiling)
	}
}

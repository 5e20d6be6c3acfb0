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
	"cloudviews/internal/optimizer"
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
// — hits the plan cache and matches a view. cfg's catalog, cluster and
// selection are set here; its other fields stand.
func warmEngine(t *testing.T, cfg Config) (*Engine, workload.JobInput) {
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
	cfg.ClusterName, cfg.Catalog, cfg.ClusterCfg = "warm", cat, cluster.Config{Capacity: 400}
	cfg.Selection = analysis.SelectionConfig{UseBigSubs: true}
	e := NewEngine(cfg)
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
	if built := submit("build", fixtures.Epoch.Add(2*time.Hour)); len(built.Compile.Proposed) == 0 {
		t.Fatal("the build job proposed no view")
	}
	in := warmInput("warm", fixtures.Epoch.Add(4*time.Hour))
	if run := submit(in.ID, in.Submit); len(run.Compile.Matched) == 0 {
		t.Fatal("the warm job matched no view")
	}
	return e, in
}

// sharedBelowSubstitutions checks that a job's plan is the prepared plan
// wherever the job substituted nothing: every node with no ViewScan or Spool
// at or below it is the prepared node at its position, and every node on the
// path from one to the root is the job's own. Positions are read as
// signature.Sign reads them: a Spool passes its own to its child, a ViewScan
// stands for the position it replaced. It returns the job's own nodes.
func sharedBelowSubstitutions(t *testing.T, id string, root plan.Node, prep *optimizer.Prepared) (own int) {
	t.Helper()
	var rec func(n plan.Node, i int) bool
	rec = func(n plan.Node, i int) (substituted bool) {
		switch x := n.(type) {
		case *plan.Spool:
			rec(x.Child, i)
			return true
		case *plan.ViewScan:
			return true
		}
		var buf [2]plan.Node
		for k, c := range plan.Inputs(n, &buf) {
			substituted = rec(c, signature.InputPos(prep.Subs, i, k)) || substituted
		}
		if shared := n == prep.Subs[i].Node; shared == substituted {
			t.Errorf("%s: %s at position %d is the prepared node = %v, rebuilt above a substitution = %v", id, n.OpName(), i, shared, substituted)
		}
		if substituted {
			own++
		}
		return substituted
	}
	rec(root, len(prep.Subs)-1)
	return own
}

// joinsRanAsPlanned checks that every join a job executed reports, in its
// NodeStat, the algorithm the job's compile result picked for it, and returns
// how many it saw.
func joinsRanAsPlanned(t *testing.T, run *JobRun) (joins int) {
	t.Helper()
	for _, st := range run.Exec.Stats {
		if _, isJoin := st.Node.(*plan.Join); isJoin {
			joins++
			if want := run.Compile.JoinAlgo(int(st.Pos)); st.Algo != want || want == plan.JoinAuto {
				t.Errorf("%s: a join ran as %v, its compile picked %v", run.Input.ID, st.Algo, want)
			}
		}
	}
	return joins
}

// TestSharedPreparedPlanIsNeverWritten: goroutines resubmitting one script
// compile from the one normalized plan and enumeration on its plan-cache
// entry, and none copies or writes it. A job that opts out of reuse compiles
// to the prepared plan itself; a job that matches a view shares every
// prepared node not on the path from its ViewScan to the root. Join
// algorithms are the compile result's, not the plan's: every join a job runs
// reports the one its CompileResult picked. The shared plan and enumeration
// come out as they went in, equal to a fresh Prepare. Run under -race (at
// -cpu 1, 2 and 4), a write would also be reported as a race with the other
// readers.
func TestSharedPreparedPlanIsNeverWritten(t *testing.T) {
	e, in := warmEngine(t, Config{})
	entry, prep := pcEntry(t, e, in)
	if entry == nil || prep == nil {
		t.Fatal("the warm engine left no prepared plan on the script's entry")
	}
	want, err := e.CompileAndExecute(in)
	if err != nil {
		t.Fatal(err)
	}
	if own := sharedBelowSubstitutions(t, in.ID, want.Compile.Plan, prep); own == 0 || len(want.Compile.Matched) == 0 {
		t.Fatalf("the warm job matched %d views and rebuilt %d nodes above them", len(want.Compile.Matched), own)
	}
	optOut := in
	optOut.ID, optOut.OptIn = "opt-out", false
	wantOut, err := e.CompileAndExecute(optOut)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := pcEntry(t, e, optOut); got != entry || len(wantOut.Compile.Matched) != 0 {
		t.Fatal("the opted-out submission must share the script's entry and match nothing")
	}
	if wantOut.Compile.Plan != prep.Plan {
		t.Fatal("the opted-out submission did not compile to the prepared plan itself")
	}
	if joinsRanAsPlanned(t, wantOut) == 0 {
		t.Fatal("the opted-out submission ran no join")
	}

	const workers, each = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				job, ref := warmInput(fmt.Sprintf("w%d-%d", w, i), in.Submit.Add(time.Duration(i)*time.Second)), want
				if i%2 == 1 {
					job.OptIn, ref = false, wantOut
				}
				run, err := e.CompileAndExecute(job)
				if err != nil {
					t.Error(err)
					return
				}
				if len(run.Compile.Matched) != len(ref.Compile.Matched) || run.Exec.Table.Fingerprint() != want.Exec.Table.Fingerprint() {
					t.Errorf("%s: matched %d views, output equal: %v", job.ID, len(run.Compile.Matched), run.Exec.Table.Fingerprint() == want.Exec.Table.Fingerprint())
					return
				}
				if plan.Format(run.Compile.Plan) != plan.Format(ref.Compile.Plan) {
					t.Errorf("%s: compiled plan differs:\n%s\nwant:\n%s", job.ID, plan.Format(run.Compile.Plan), plan.Format(ref.Compile.Plan))
					return
				}
				if job.OptIn {
					sharedBelowSubstitutions(t, job.ID, run.Compile.Plan, prep)
				} else if run.Compile.Plan != prep.Plan {
					t.Errorf("%s: an opted-out job did not compile to the prepared plan itself", job.ID)
				}
				joinsRanAsPlanned(t, run)
			}
		}(w)
	}
	wg.Wait()

	if _, now := pcEntry(t, e, in); now != prep {
		t.Error("the entry's prepared plan was replaced while the catalog generation stood still")
	}
	// A fresh Prepare of the same script is what the entry must still hold.
	fresh := coldPrepared(t, e, in)
	if got, was := plan.Format(prep.Plan), plan.Format(fresh.Plan); got != was {
		t.Errorf("the shared plan was rewritten:\n%s\nwas:\n%s", got, was)
	}
	if len(prep.Subs) != len(fresh.Subs) || prep.Tag != fresh.Tag {
		t.Errorf("the shared entry differs from a fresh Prepare: %d subexpressions, tag %s; fresh: %d, %s",
			len(prep.Subs), prep.Tag, len(fresh.Subs), fresh.Tag)
	}
	for i := range fresh.Subs {
		got, was := prep.Subs[i], fresh.Subs[i]
		got.Node, was.Node = nil, nil
		if !reflect.DeepEqual(got, was) {
			t.Errorf("the shared enumeration was written at %d: %+v, fresh %+v", i, got, was)
		}
	}
}

// warmAllocCeiling bounds the allocations of one warm, onboarded,
// view-matching resubmission. Last measured: 23, Go 1.24; 24 while the stage
// lowering built a slice of its own beside the cluster's stage specs, 29
// while the job's estimates, result-cache keys and record statistics were
// maps keyed by plan node, 36 while the trace, its span slice, its event, the
// explain recorder, its decisions and the critical-path phase map were each
// their own allocation, 37 while the plan-cache key was a new string per
// lookup. The ceiling keeps 4 of margin, so the 45 a job cost when
// result-cache keys above a view rendered their attributes again goes past
// it. It is the unit-test-cost gate on the reuse-on path: a change that
// re-signs the final plan, copies the prepared one, re-normalizes per job or
// copies the job's record on its way into the repository goes past it.
const warmAllocCeiling = 27

// unobservedWarmAllocCeiling bounds the same resubmission with observability
// off, where no trace, explain recorder or metric exists. Last measured: 21,
// Go 1.24; 22 while the stage lowering built a slice of its own, 27 while the
// job's per-node tables were maps keyed by plan node, 29 while the
// insights.annotations event's detail was formatted before the nil-trace
// check. The ceiling keeps 1 of margin, so formatting any event's detail for
// a trace that is not there goes past it.
const unobservedWarmAllocCeiling = 22

// observabilityAllocs bounds what observing the resubmission costs over not
// observing it: the job's one record (explain.Job: trace, events and
// decisions inline) and the insights.annotations event's detail string. A
// second record, a decision or event that outgrows the inline storage, or an
// analysis that allocates per job goes past it.
const observabilityAllocs = 2

func TestWarmResubmissionAllocCeiling(t *testing.T) {
	measured := map[string]float64{}
	for _, c := range []struct {
		name    string
		cfg     Config
		ceiling int
	}{
		{"observed", Config{}, warmAllocCeiling},
		{"unobserved", Config{DisableObservability: true}, unobservedWarmAllocCeiling},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, in := warmEngine(t, c.cfg)
			allocs := testing.AllocsPerRun(200, func() {
				run, err := e.CompileAndExecute(in)
				if err != nil || len(run.Compile.Matched) == 0 {
					t.Fatalf("warm resubmission: err=%v", err)
				}
			})
			t.Logf("%.0f allocs per warm resubmission (ceiling %d)", allocs, c.ceiling)
			if allocs > float64(c.ceiling) {
				t.Errorf("%.0f allocs per warm resubmission, ceiling %d", allocs, c.ceiling)
			}
			measured[c.name] = allocs
		})
	}
	if d := measured["observed"] - measured["unobserved"]; d > observabilityAllocs {
		t.Errorf("observing a warm resubmission costs %.0f allocs, want at most %d", d, observabilityAllocs)
	}
}

package repository_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
)

var t0 = time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

// mkJob builds a record with a scan->filter->join chain of subexpressions.
func mkJob(id, vc, pipeline string, submit time.Time, recurBase string, strictSuffix string) *repository.JobRecord {
	return &repository.JobRecord{
		JobID: id, Cluster: "c1", VC: vc, Pipeline: pipeline,
		Template: signature.Sig(recurBase + "-root"),
		Submit:   submit, Start: submit, End: submit.Add(time.Minute),
		Subexprs: []repository.SubexprRecord{
			{JobID: id, Op: "Scan", Strict: signature.Sig("s-scan-" + strictSuffix), Recurring: signature.Sig(recurBase + "-scan"),
				InputDatasets: []string{"A"}, Parent: 1, Eligible: signature.IneligibleTrivial},
			{JobID: id, Op: "Filter", Strict: signature.Sig("s-filter-" + strictSuffix), Recurring: signature.Sig(recurBase + "-filter"),
				InputDatasets: []string{"A"}, Parent: 2, Work: 5, Rows: 100, Bytes: 1000, Eligible: signature.EligibleOK},
			{JobID: id, Op: "Join", Strict: signature.Sig("s-join-" + strictSuffix), Recurring: signature.Sig(recurBase + "-join"),
				InputDatasets: []string{"A", "B"}, Parent: -1, Work: 20, Rows: 500, Bytes: 9000,
				JoinAlgo: "Hash Join", Eligible: signature.EligibleOK},
		},
	}
}

func TestAddAndCounts(t *testing.T) {
	r := repository.New()
	r.Add(mkJob("j1", "vc1", "p1", t0, "r", "a"))
	r.Add(mkJob("j2", "vc1", "p1", t0.Add(time.Hour), "r", "a"))
	if r.Len() != 2 || r.SubexprCount() != 6 {
		t.Errorf("len=%d subexprs=%d", r.Len(), r.SubexprCount())
	}
}

func TestJobsBetween(t *testing.T) {
	r := repository.New()
	for i := 0; i < 5; i++ {
		r.Add(mkJob(fmt.Sprintf("j%d", i), "vc1", "p", t0.AddDate(0, 0, i), "r", fmt.Sprintf("%d", i)))
	}
	got := r.JobsBetween(t0.AddDate(0, 0, 1), t0.AddDate(0, 0, 3))
	if len(got) != 2 {
		t.Errorf("window = %d jobs, want 2", len(got))
	}
}

func TestGroupByRecurring(t *testing.T) {
	r := repository.New()
	// Same strict instance twice (reuse opportunity) plus one new instance.
	r.Add(mkJob("j1", "vc1", "p1", t0, "r", "day0"))
	r.Add(mkJob("j2", "vc2", "p2", t0.Add(time.Hour), "r", "day0"))
	r.Add(mkJob("j3", "vc1", "p1", t0.AddDate(0, 0, 1), "r", "day1"))

	groups := r.GroupByRecurring(t0, t0.AddDate(0, 0, 2))
	join := groups["r-join"]
	if join == nil {
		t.Fatal("missing join group")
	}
	if join.Count != 3 || join.DistinctStrict != 2 {
		t.Errorf("count=%d distinct=%d", join.Count, join.DistinctStrict)
	}
	if join.AvgWork != 20 || join.AvgRows != 500 {
		t.Errorf("avgWork=%g avgRows=%g", join.AvgWork, join.AvgRows)
	}
	if !reflect.DeepEqual(join.VCs, []string{"vc1", "vc2"}) || !reflect.DeepEqual(join.VCOccs, []int{2, 1}) {
		t.Errorf("VCs = %v, VCOccs = %v, want [vc1 vc2] and [2 1]", join.VCs, join.VCOccs)
	}
	if len(join.Submits) != 3 || len(join.SubmitStrict) != 3 {
		t.Errorf("submit tracking incomplete: %d/%d", len(join.Submits), len(join.SubmitStrict))
	}
	if !join.Eligible {
		t.Error("join group must be eligible")
	}
	scan := groups["r-scan"]
	if scan.Eligible {
		t.Error("scan group must be ineligible (trivial)")
	}
}

func TestGroupByRecurringWindowFilter(t *testing.T) {
	r := repository.New()
	r.Add(mkJob("j1", "vc1", "p", t0, "r", "a"))
	r.Add(mkJob("j2", "vc1", "p", t0.AddDate(0, 0, 10), "r", "b"))
	groups := r.GroupByRecurring(t0, t0.AddDate(0, 0, 1))
	if groups["r-join"].Count != 1 {
		t.Errorf("window must exclude later jobs: %d", groups["r-join"].Count)
	}
}

func TestDatasetConsumers(t *testing.T) {
	r := repository.New()
	r.Add(mkJob("j1", "vc1", "pipeA", t0, "r1", "a"))
	r.Add(mkJob("j2", "vc1", "pipeB", t0, "r2", "b"))
	r.Add(mkJob("j3", "vc1", "pipeA", t0, "r3", "c")) // same pipeline again
	consumers := r.DatasetConsumers(t0, t0.Add(time.Hour), "c1")
	if len(consumers["A"]) != 2 {
		t.Errorf("dataset A consumers = %d, want 2 distinct pipelines", len(consumers["A"]))
	}
	// Filter by cluster.
	if got := r.DatasetConsumers(t0, t0.Add(time.Hour), "other"); len(got) != 0 {
		t.Errorf("cluster filter leaked: %v", got)
	}
}

func TestJoinExecutions(t *testing.T) {
	r := repository.New()
	r.Add(mkJob("j1", "vc1", "p", t0, "r", "a"))
	r.Add(mkJob("j2", "vc1", "p", t0.Add(30*time.Second), "r", "a"))
	execs := r.JoinExecutions(t0, t0.Add(time.Hour), "c1")
	if len(execs) != 2 {
		t.Fatalf("executions = %d", len(execs))
	}
	for _, e := range execs {
		if e.Algo != "Hash Join" || e.Recurring != "r-join" {
			t.Errorf("bad execution %+v", e)
		}
		if !e.End.After(e.Start) {
			t.Error("execution window must be positive")
		}
	}
}

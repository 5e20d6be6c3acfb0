package analysis_test

import (
	"fmt"
	"testing"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
)

var t0 = time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

// addJob inserts a job with a single eligible subexpression (plus its trivial
// scan child) into the repo.
func addJob(r *repository.Repo, id, vc string, submit time.Time, recurring, strict string, work float64, bytes int64) {
	r.Add(&repository.JobRecord{
		JobID: id, Cluster: "c", VC: vc, Pipeline: "p-" + id,
		Template: signature.Sig("tmpl-" + recurring),
		Submit:   submit, Start: submit, End: submit.Add(time.Minute),
		Subexprs: []repository.SubexprRecord{
			{JobID: id, Op: "Scan", Strict: signature.Sig(strict + "-scan"), Recurring: signature.Sig(recurring + "-scan"),
				InputDatasets: []string{"A"}, Parent: 1, Eligible: signature.IneligibleTrivial},
			{JobID: id, Op: "Filter", Strict: signature.Sig(strict), Recurring: signature.Sig(recurring),
				InputDatasets: []string{"A"}, Parent: -1, Work: work, Rows: 1000, Bytes: bytes,
				Eligible: signature.EligibleOK},
		},
	})
}

func TestSelectViewsBasics(t *testing.T) {
	r := repository.New()
	// Three occurrences of one strict instance: a solid candidate.
	for i := 0; i < 3; i++ {
		addJob(r, fmt.Sprintf("j%d", i), "vc1", t0.Add(time.Duration(i)*time.Hour), "rec1", "strict1", 500, 10_000)
	}
	// A once-only subexpression: never a candidate.
	addJob(r, "solo", "vc1", t0, "rec2", "strict2", 500, 10_000)

	byVC, rejected := analysis.SelectViews(r, t0, t0.AddDate(0, 0, 1), analysis.SelectionConfig{})
	if rejected != 0 {
		t.Errorf("rejected = %d", rejected)
	}
	cands := byVC["vc1"]
	if len(cands) != 1 {
		t.Fatalf("candidates = %d, want 1", len(cands))
	}
	c := cands[0]
	if c.Recurring != "rec1" || c.Frequency != 3 || c.Utility <= 0 {
		t.Errorf("candidate = %+v", c)
	}
	if len(c.JobTemplates) != 1 || c.JobTemplates[0] != "tmpl-rec1" {
		t.Errorf("templates = %v", c.JobTemplates)
	}
}

func TestSelectViewsRecurrenceAcrossInstancesIsNotReuse(t *testing.T) {
	r := repository.New()
	// Three occurrences, all DIFFERENT strict instances (daily recurrence
	// over fresh inputs): building a view would never be reused.
	for i := 0; i < 3; i++ {
		addJob(r, fmt.Sprintf("j%d", i), "vc1", t0.AddDate(0, 0, i), "rec1", fmt.Sprintf("strict-%d", i), 500, 10_000)
	}
	byVC, _ := analysis.SelectViews(r, t0, t0.AddDate(0, 0, 5), analysis.SelectionConfig{})
	if len(byVC["vc1"]) != 0 {
		t.Errorf("cross-instance recurrence selected: %+v", byVC["vc1"])
	}
}

func TestSelectViewsNegativeUtilityRejected(t *testing.T) {
	r := repository.New()
	// Cheap computation with a huge artifact: reading the view costs more
	// than recomputing.
	for i := 0; i < 3; i++ {
		addJob(r, fmt.Sprintf("j%d", i), "vc1", t0.Add(time.Duration(i)*time.Hour), "rec1", "s1", 0.001, 50_000_000_000)
	}
	byVC, _ := analysis.SelectViews(r, t0, t0.AddDate(0, 0, 1), analysis.SelectionConfig{})
	if len(byVC["vc1"]) != 0 {
		t.Errorf("negative-utility candidate selected: %+v", byVC["vc1"])
	}
}

func TestScheduleAwareRejection(t *testing.T) {
	r := repository.New()
	// All occurrences of the same instance within seconds of each other:
	// materialization can't finish before the consumers run.
	for i := 0; i < 4; i++ {
		addJob(r, fmt.Sprintf("j%d", i), "vc1", t0.Add(time.Duration(i)*time.Second), "rec1", "s1", 500, 10_000)
	}
	cfg := analysis.SelectionConfig{ScheduleAware: true}
	byVC, rejected := analysis.SelectViews(r, t0, t0.AddDate(0, 0, 1), cfg)
	if len(byVC["vc1"]) != 0 || rejected != 1 {
		t.Errorf("selected=%v rejected=%d, want schedule rejection", byVC["vc1"], rejected)
	}
	// Spreading one occurrence out re-qualifies the candidate.
	addJob(r, "late", "vc1", t0.Add(2*time.Hour), "rec1", "s1", 500, 10_000)
	byVC, rejected = analysis.SelectViews(r, t0, t0.AddDate(0, 0, 1), cfg)
	if len(byVC["vc1"]) != 1 || rejected != 0 {
		t.Errorf("selected=%d rejected=%d after spreading", len(byVC["vc1"]), rejected)
	}
}

func TestStorageBudget(t *testing.T) {
	r := repository.New()
	// Two candidates: high-density small one, low-density big one.
	for i := 0; i < 3; i++ {
		addJob(r, fmt.Sprintf("a%d", i), "vc1", t0.Add(time.Duration(i)*time.Hour), "small", "s-small", 800, 1000)
		addJob(r, fmt.Sprintf("b%d", i), "vc1", t0.Add(time.Duration(i)*time.Hour), "big", "s-big", 900, 1_000_000)
	}
	cfg := analysis.SelectionConfig{StorageBudgetPerVC: 2000}
	byVC, _ := analysis.SelectViews(r, t0, t0.AddDate(0, 0, 1), cfg)
	cands := byVC["vc1"]
	if len(cands) != 1 || cands[0].Recurring != "small" {
		t.Errorf("budget selection = %+v, want only the dense candidate", cands)
	}
}

func TestPerVCPartitioning(t *testing.T) {
	r := repository.New()
	// rec1 occurs mostly in vc1, rec2 only in vc2.
	addJob(r, "a1", "vc1", t0, "rec1", "s1", 500, 10_000)
	addJob(r, "a2", "vc1", t0.Add(time.Hour), "rec1", "s1", 500, 10_000)
	addJob(r, "a3", "vc2", t0.Add(2*time.Hour), "rec1", "s1", 500, 10_000)
	addJob(r, "b1", "vc2", t0, "rec2", "s2", 500, 10_000)
	addJob(r, "b2", "vc2", t0.Add(time.Hour), "rec2", "s2", 500, 10_000)
	byVC, _ := analysis.SelectViews(r, t0, t0.AddDate(0, 0, 1), analysis.SelectionConfig{})
	if len(byVC["vc1"]) != 1 || byVC["vc1"][0].Recurring != "rec1" {
		t.Errorf("vc1 = %+v", byVC["vc1"])
	}
	if len(byVC["vc2"]) != 1 || byVC["vc2"][0].Recurring != "rec2" {
		t.Errorf("vc2 = %+v", byVC["vc2"])
	}
}

// addNestedJob inserts a job where candidate "outer" contains candidate
// "inner".
func addNestedJob(r *repository.Repo, id string, submit time.Time, strictSuffix string) {
	r.Add(&repository.JobRecord{
		JobID: id, Cluster: "c", VC: "vc1", Pipeline: "p",
		Template: "tmpl-nested", Submit: submit, Start: submit, End: submit.Add(time.Minute),
		Subexprs: []repository.SubexprRecord{
			{JobID: id, Op: "Filter", Strict: signature.Sig("inner-" + strictSuffix), Recurring: "inner",
				InputDatasets: []string{"A"}, Parent: 1, Work: 400, Rows: 1000, Bytes: 10_000, Eligible: signature.EligibleOK},
			{JobID: id, Op: "Join", Strict: signature.Sig("outer-" + strictSuffix), Recurring: "outer",
				InputDatasets: []string{"A", "B"}, Parent: -1, Work: 900, Rows: 1000, Bytes: 12_000, Eligible: signature.EligibleOK},
		},
	})
}

func TestBigSubsDropsCoveredInner(t *testing.T) {
	r := repository.New()
	for i := 0; i < 4; i++ {
		addNestedJob(r, fmt.Sprintf("j%d", i), t0.Add(time.Duration(i)*time.Hour), "x")
	}
	greedy, _ := analysis.SelectViews(r, t0, t0.AddDate(0, 0, 1), analysis.SelectionConfig{})
	bigsubs, _ := analysis.SelectViews(r, t0, t0.AddDate(0, 0, 1), analysis.SelectionConfig{UseBigSubs: true})
	if len(greedy["vc1"]) != 2 {
		t.Fatalf("greedy selects both: got %d", len(greedy["vc1"]))
	}
	if len(bigsubs["vc1"]) != 1 || bigsubs["vc1"][0].Recurring != "outer" {
		t.Errorf("bigsubs = %+v, want only the outer candidate", bigsubs["vc1"])
	}
}

func TestBigSubsKeepsInnerWithIndependentUses(t *testing.T) {
	r := repository.New()
	for i := 0; i < 3; i++ {
		addNestedJob(r, fmt.Sprintf("j%d", i), t0.Add(time.Duration(i)*time.Hour), "x")
	}
	// The inner subexpression ALSO occurs standalone in other jobs.
	for i := 0; i < 4; i++ {
		addJob(r, fmt.Sprintf("solo%d", i), "vc1", t0.Add(time.Duration(i)*time.Hour), "inner", "inner-x", 400, 10_000)
	}
	bigsubs, _ := analysis.SelectViews(r, t0, t0.AddDate(0, 0, 1), analysis.SelectionConfig{UseBigSubs: true})
	found := map[signature.Sig]bool{}
	for _, c := range bigsubs["vc1"] {
		found[c.Recurring] = true
	}
	if !found["outer"] || !found["inner"] {
		t.Errorf("want both selected (inner has uncovered uses): %+v", bigsubs["vc1"])
	}
}

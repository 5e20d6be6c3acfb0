package pipelined_test

import (
	"testing"
	"time"

	"cloudviews/internal/fixtures"
	"cloudviews/internal/pipelined"
	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
)

var t0 = fixtures.Epoch

func occJob(id string, start, end time.Time, strict string, work float64) *repository.JobRecord {
	return &repository.JobRecord{
		JobID: id, Cluster: "c1", VC: "vc", Pipeline: "p-" + id,
		Template: "t", Submit: start, Start: start, End: end,
		ProcessingSec: work * 1.5,
		Subexprs: []repository.SubexprRecord{
			{JobID: id, Op: "Join", Strict: signature.Sig(strict), Recurring: "rec",
				InputDatasets: []string{"A", "B"}, Parent: -1,
				Work: work, Rows: 1000, Bytes: 10_000, Eligible: signature.EligibleOK},
		},
	}
}

func TestEstimateOpportunity(t *testing.T) {
	repo := repository.New()
	// Three overlapping instances of the same strict subexpression.
	repo.Add(occJob("a", t0, t0.Add(10*time.Minute), "s1", 600))
	repo.Add(occJob("b", t0.Add(time.Minute), t0.Add(9*time.Minute), "s1", 600))
	repo.Add(occJob("c", t0.Add(2*time.Minute), t0.Add(8*time.Minute), "s1", 600))
	// A non-overlapping instance of another subexpression.
	repo.Add(occJob("d", t0.Add(2*time.Hour), t0.Add(2*time.Hour+time.Minute), "s2", 600))

	rep := pipelined.EstimateOpportunity(repo, t0, t0.AddDate(0, 0, 1), "c1")
	if len(rep.Sharings) != 1 {
		t.Fatalf("sharings = %+v", rep.Sharings)
	}
	s := rep.Sharings[0]
	if s.Instances != 3 || s.Strict != "s1" {
		t.Errorf("sharing = %+v", s)
	}
	// Saved ≈ 2 × (600 − pipe); pipe is tiny here.
	if s.SavedWork < 1000 || s.SavedWork > 1200 {
		t.Errorf("saved = %g, want ~1200", s.SavedWork)
	}
	if rep.TotalSaved != s.SavedWork {
		t.Errorf("total = %g", rep.TotalSaved)
	}
	if rep.TotalWork <= 0 {
		t.Error("total work context missing")
	}
}

func TestEstimateOpportunitySkipsCheapSubtrees(t *testing.T) {
	repo := repository.New()
	// Overlapping but nearly free: pipelining would not pay.
	repo.Add(occJob("a", t0, t0.Add(10*time.Minute), "s1", 0.000001))
	repo.Add(occJob("b", t0.Add(time.Minute), t0.Add(9*time.Minute), "s1", 0.000001))
	rep := pipelined.EstimateOpportunity(repo, t0, t0.AddDate(0, 0, 1), "c1")
	if len(rep.Sharings) != 0 {
		t.Errorf("cheap sharing reported: %+v", rep.Sharings)
	}
}

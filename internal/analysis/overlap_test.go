package analysis_test

import (
	"fmt"
	"testing"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/lineage"
	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
)

func scanJob(id, cluster, pipeline, dataset string, submit time.Time) *repository.JobRecord {
	return &repository.JobRecord{
		JobID: id, Cluster: cluster, VC: "vc", Pipeline: pipeline,
		Template: signature.Sig("t-" + pipeline), Submit: submit, Start: submit, End: submit.Add(time.Minute),
		Subexprs: []repository.SubexprRecord{
			{JobID: id, Op: "Scan", Strict: signature.Sig("s-" + id), Recurring: signature.Sig("r-" + dataset),
				InputDatasets: []string{dataset}, Parent: -1, Eligible: signature.IneligibleTrivial},
		},
	}
}

func TestConsumerCDF(t *testing.T) {
	r := repository.New()
	// DatasetA: 3 pipelines, one of them scanning it twice; DatasetB: 1
	// pipeline.
	for i := 0; i < 3; i++ {
		r.Add(scanJob(fmt.Sprintf("a%d", i), "c1", fmt.Sprintf("pipe%d", i), "DatasetA", t0))
	}
	r.Add(scanJob("a3", "c1", "pipe0", "DatasetA", t0))
	r.Add(scanJob("b0", "c1", "pipeX", "DatasetB", t0))

	cdf := analysis.ConsumerCDF(lineage.Build(r, t0, t0.Add(time.Hour), nil))
	if len(cdf) != 2 {
		t.Fatalf("cdf = %d points", len(cdf))
	}
	if cdf[0].Consumers != 1 || cdf[1].Consumers != 3 {
		t.Errorf("cdf = %+v", cdf)
	}
	if cdf[1].Fraction != 1.0 {
		t.Errorf("final fraction = %g", cdf[1].Fraction)
	}
	if got := analysis.PercentileConsumers(cdf, 0.9); got != 3 {
		t.Errorf("p90 = %d", got)
	}
	if got := analysis.PercentileConsumers(nil, 0.9); got != 0 {
		t.Errorf("empty cdf p90 = %d", got)
	}
}

func TestOverlapSeries(t *testing.T) {
	r := repository.New()
	// Week 1: dataset A scanned by 3 jobs (repeated) + one unique job.
	for i := 0; i < 3; i++ {
		r.Add(scanJob(fmt.Sprintf("w1-%d", i), "c1", "p", "A", t0.Add(time.Duration(i)*time.Hour)))
	}
	r.Add(scanJob("w1-u", "c1", "p", "Unique1", t0))
	// Week 2: only unique jobs.
	w2 := t0.AddDate(0, 0, 7)
	r.Add(scanJob("w2-a", "c1", "p", "Unique2", w2))
	r.Add(scanJob("w2-b", "c1", "p", "Unique3", w2))

	pts := analysis.OverlapSeries(r, t0, t0.AddDate(0, 0, 14), 7*24*time.Hour)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].RepeatedPct != 75 { // 3 of 4 instances repeated
		t.Errorf("week1 repeated%% = %g, want 75", pts[0].RepeatedPct)
	}
	if pts[0].AvgRepeatFrequency != 2 { // 4 instances / 2 distinct
		t.Errorf("week1 freq = %g, want 2", pts[0].AvgRepeatFrequency)
	}
	if pts[1].RepeatedPct != 0 {
		t.Errorf("week2 repeated%% = %g, want 0", pts[1].RepeatedPct)
	}
}

func joinJob(id string, datasets []string, recurring string, submit, end time.Time, algo string) *repository.JobRecord {
	return &repository.JobRecord{
		JobID: id, Cluster: "c1", VC: "vc", Pipeline: "p-" + id,
		Template: "t", Submit: submit, Start: submit, End: end,
		Subexprs: []repository.SubexprRecord{
			{JobID: id, Op: "Join", Strict: signature.Sig("s-" + id), Recurring: signature.Sig(recurring),
				InputDatasets: datasets, Parent: -1, JoinAlgo: algo, Eligible: signature.EligibleOK},
		},
	}
}

func TestGeneralizedReuse(t *testing.T) {
	r := repository.New()
	// Two syntactically different joins over the same input set {A,B}.
	r.Add(joinJob("j1", []string{"A", "B"}, "join-v1", t0, t0.Add(time.Minute), "Hash Join"))
	r.Add(joinJob("j2", []string{"A", "B"}, "join-v1", t0.Add(time.Hour), t0.Add(61*time.Minute), "Hash Join"))
	r.Add(joinJob("j3", []string{"A", "B"}, "join-v2", t0, t0.Add(time.Minute), "Hash Join"))
	// A different input set.
	r.Add(joinJob("j4", []string{"C", "D"}, "join-v3", t0, t0.Add(time.Minute), "Merge Join"))

	groups := analysis.GeneralizedReuse(r, t0, t0.AddDate(0, 0, 1))
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	top := groups[0]
	if top.Frequency != 3 || top.DistinctSubexprs != 2 {
		t.Errorf("top group = %+v", top)
	}
	if len(top.Datasets) != 2 || top.Datasets[0] != "A" {
		t.Errorf("datasets = %v", top.Datasets)
	}
}

func TestConcurrentJoins(t *testing.T) {
	r := repository.New()
	// Three overlapping executions of the same join + one disjoint.
	r.Add(joinJob("c1", []string{"A", "B"}, "jr", t0, t0.Add(10*time.Minute), "Hash Join"))
	r.Add(joinJob("c2", []string{"A", "B"}, "jr", t0.Add(time.Minute), t0.Add(9*time.Minute), "Hash Join"))
	r.Add(joinJob("c3", []string{"A", "B"}, "jr", t0.Add(2*time.Minute), t0.Add(8*time.Minute), "Hash Join"))
	r.Add(joinJob("c4", []string{"A", "B"}, "jr", t0.Add(2*time.Hour), t0.Add(2*time.Hour+time.Minute), "Hash Join"))
	// A different join overlapping only once: not reported (<2 peak).
	r.Add(joinJob("d1", []string{"C", "D"}, "other", t0, t0.Add(time.Minute), "Merge Join"))

	stats := analysis.ConcurrentJoins(r, t0, t0.AddDate(0, 0, 1))
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Concurrency != 3 || stats[0].Algo != "Hash Join" {
		t.Errorf("stat = %+v", stats[0])
	}
	hist := analysis.ConcurrencyHistogram(stats)
	if hist["Hash Join"][3] != 1 {
		t.Errorf("histogram = %+v", hist)
	}
}

func TestConcurrentJoinsTouchingWindowsDoNotOverlap(t *testing.T) {
	r := repository.New()
	end := t0.Add(time.Minute)
	r.Add(joinJob("c1", []string{"A", "B"}, "jr", t0, end, "Hash Join"))
	r.Add(joinJob("c2", []string{"A", "B"}, "jr", end, end.Add(time.Minute), "Hash Join"))
	stats := analysis.ConcurrentJoins(r, t0, t0.AddDate(0, 0, 1))
	if len(stats) != 0 {
		t.Errorf("back-to-back windows must not count as concurrent: %+v", stats)
	}
}

func occJob(id string, start, end time.Time, strict string, work float64) *repository.JobRecord {
	return &repository.JobRecord{
		JobID: id, Cluster: "c1", VC: "vc", Pipeline: "p-" + id,
		Template: "t", Submit: start, Start: start, End: end,
		Outcome: repository.Outcome{ProcessingSec: work * 1.5},
		Subexprs: []repository.SubexprRecord{
			{JobID: id, Op: "Join", Strict: signature.Sig(strict), Recurring: "rec",
				InputDatasets: []string{"A", "B"}, Parent: -1,
				Work: work, Rows: 1000, Bytes: 10_000, Eligible: signature.EligibleOK},
		},
	}
}

func TestPipelineOpportunity(t *testing.T) {
	repo := repository.New()
	// Three overlapping instances of the same strict subexpression.
	repo.Add(occJob("a", t0, t0.Add(10*time.Minute), "s1", 600))
	repo.Add(occJob("b", t0.Add(time.Minute), t0.Add(9*time.Minute), "s1", 600))
	repo.Add(occJob("c", t0.Add(2*time.Minute), t0.Add(8*time.Minute), "s1", 600))
	// A non-overlapping instance of another subexpression.
	repo.Add(occJob("d", t0.Add(2*time.Hour), t0.Add(2*time.Hour+time.Minute), "s2", 600))

	rep := analysis.PipelineOpportunity(repo, t0, t0.AddDate(0, 0, 1))
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

func TestPipelineOpportunitySkipsCheapSubtrees(t *testing.T) {
	repo := repository.New()
	// Overlapping but nearly free: pipelining would not pay.
	repo.Add(occJob("a", t0, t0.Add(10*time.Minute), "s1", 0.000001))
	repo.Add(occJob("b", t0.Add(time.Minute), t0.Add(9*time.Minute), "s1", 0.000001))
	rep := analysis.PipelineOpportunity(repo, t0, t0.AddDate(0, 0, 1))
	if len(rep.Sharings) != 0 {
		t.Errorf("cheap sharing reported: %+v", rep.Sharings)
	}
}

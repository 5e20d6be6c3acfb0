package experiments_test

import (
	"strings"
	"testing"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/core"
	"cloudviews/internal/experiments"
	"cloudviews/internal/repository"
)

func TestRenderTable1(t *testing.T) {
	out := experiments.RenderTable1(experiments.Table1{
		Jobs: 1000, Pipelines: 50, VirtualClusters: 4, RuntimeVersions: 3,
		ViewsCreated: 100, ViewsUsed: 500,
		LatencyImpPct: 34.0, MedianLatencyImpPct: 15.0, ProcessingImpPct: 39.0,
		BonusImpPct: 45.0, ContainersImpPct: 36.0, InputImpPct: 36.4,
		DataReadImpPct: 38.8, QueueImpPct: 12.9,
	})
	for _, want := range []string{"Jobs", "1000", "34.00%", "Views Used", "500", "Queuing Length Improvement"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderFigureSeries(t *testing.T) {
	res := &experiments.ProductionResult{
		Days: []experiments.DayPair{
			{
				Date: time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC),
				Base: core.DayMetrics{Outcome: repository.Outcome{LatencySec: 100, ProcessingSec: 500, BonusSec: 50, Containers: 10, InputBytes: 2e9, DataReadBytes: 3e9, QueueLen: 4}},
				CV:   core.DayMetrics{Outcome: repository.Outcome{LatencySec: 80, ProcessingSec: 300, BonusSec: 20, Containers: 7, InputBytes: 1e9, DataReadBytes: 2e9, QueueLen: 2}, ViewsBuilt: 3, ViewsReused: 9},
			},
			{
				Date: time.Date(2020, 2, 2, 0, 0, 0, 0, time.UTC),
				Base: core.DayMetrics{Outcome: repository.Outcome{LatencySec: 110, ProcessingSec: 520}},
				CV:   core.DayMetrics{Outcome: repository.Outcome{LatencySec: 70, ProcessingSec: 280}, ViewsBuilt: 1, ViewsReused: 5},
			},
		},
	}
	f6 := experiments.RenderFigure6(res)
	if !strings.Contains(f6, "2020-02-02") || !strings.Contains(f6, "14") /* cumulative reused */ {
		t.Errorf("figure 6 render:\n%s", f6)
	}
	f7 := experiments.RenderFigure7(res)
	if !strings.Contains(f7, "2020-02-01") || !strings.Contains(f7, "queue") {
		t.Errorf("figure 7 render:\n%s", f7)
	}
}

func TestRenderAnalysisFigures(t *testing.T) {
	f2 := experiments.RenderFigure2([]experiments.Figure2Result{
		{Cluster: "Cluster1", CDF: []analysis.ConsumerPoint{{Fraction: 0.5, Consumers: 3}, {Fraction: 1, Consumers: 20}}, Top10Pct: 20},
	})
	if !strings.Contains(f2, "Cluster1") || !strings.Contains(f2, "20 consumers") {
		t.Errorf("figure 2 render:\n%s", f2)
	}
	f3 := experiments.RenderFigure3(&experiments.Figure3Result{
		Points: []analysis.OverlapPoint{{Start: time.Date(2020, 1, 13, 0, 0, 0, 0, time.UTC), RepeatedPct: 75.2, AvgRepeatFrequency: 5.1, Instances: 100, Distinct: 20}},
	})
	if !strings.Contains(f3, "75.2") || !strings.Contains(f3, "5.10") {
		t.Errorf("figure 3 render:\n%s", f3)
	}
	f8 := experiments.RenderFigure8(&experiments.Figure8Result{
		Groups: []analysis.JoinSetGroup{{Datasets: []string{"A", "B"}, DistinctSubexprs: 4, Frequency: 88}},
	}, 10)
	if !strings.Contains(f8, "88") || !strings.Contains(f8, "A ⋈ B") {
		t.Errorf("figure 8 render:\n%s", f8)
	}
	f9 := experiments.RenderFigure9(&experiments.Figure9Result{
		Histogram: map[string]map[int]int{"Hash Join": {4: 2}},
		Outliers:  []int{4},
	})
	if !strings.Contains(f9, "Hash Join") || !strings.Contains(f9, "concurrency    4 : 2") {
		t.Errorf("figure 9 render:\n%s", f9)
	}
	co := experiments.RenderConcurrentOpportunity(&experiments.ConcurrentOpportunityResult{
		Report: &analysis.PipelineReport{
			Sharings:   []analysis.PipelineSharing{{Op: "Join", Instances: 3, SavedWork: 120}},
			TotalSaved: 120, TotalWork: 1200,
		},
	}, 5)
	if !strings.Contains(co, "Join") || !strings.Contains(co, "10.0%") {
		t.Errorf("concurrent render:\n%s", co)
	}
}

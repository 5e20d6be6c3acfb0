package experiments

import (
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/cluster"
	"cloudviews/internal/core"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/lineage"
	"cloudviews/internal/workload"
)

// Figure2Result holds one cluster's shared-dataset CDF.
type Figure2Result struct {
	Cluster string
	CDF     []analysis.ConsumerPoint
	// Top10Pct is the consumer count exceeded by the top 10% of inputs
	// (paper: ≥16 for Cluster1, ≥7 elsewhere).
	Top10Pct int
}

// RunFigure2 generates the five paper-shaped clusters, records one week of
// workload telemetry per cluster (compile-only), and computes the consumer
// CDFs from each cluster's lineage graph.
func RunFigure2(days int, scale float64) ([]Figure2Result, error) {
	if days <= 0 {
		days = 7
	}
	var out []Figure2Result
	for _, profile := range scaledProfiles(scale) {
		repoEngine, err := recordWorkload(profile, days)
		if err != nil {
			return nil, err
		}
		from := fixtures.Epoch
		to := fixtures.Epoch.AddDate(0, 0, days)
		cdf := analysis.ConsumerCDF(lineage.Build(repoEngine.Repo, from, to, nil))
		out = append(out, Figure2Result{
			Cluster:  profile.Name,
			CDF:      cdf,
			Top10Pct: analysis.PercentileConsumers(cdf, 0.9),
		})
	}
	return out, nil
}

// Figure3Result is the weekly overlap series across all clusters combined.
type Figure3Result struct {
	Points []analysis.OverlapPoint
}

// RunFigure3 records a multi-month workload (compile-only) on the paper's
// five clusters and computes the weekly repeated-subexpression percentage and
// average repeat frequency (paper: ~75% and ~5, both stable over ten months).
func RunFigure3(days int, scale float64) (*Figure3Result, error) {
	if days <= 0 {
		days = 304 // January – October 2020
	}
	combined := &Figure3Result{}
	// One aggregate repository across clusters keeps the series comparable
	// to the paper's all-clusters view; clusters use disjoint dataset
	// namespaces so their subexpressions never collide.
	var engines []*core.Engine
	for _, profile := range scaledProfiles(scale) {
		eng, err := recordWorkload(profile, days)
		if err != nil {
			return nil, err
		}
		engines = append(engines, eng)
	}
	from := fixtures.Epoch
	to := fixtures.Epoch.AddDate(0, 0, days)
	week := 7 * 24 * time.Hour
	perCluster := make([][]analysis.OverlapPoint, len(engines))
	for i, eng := range engines {
		perCluster[i] = analysis.OverlapSeries(eng.Repo, from, to, week)
	}
	// Merge per-cluster weekly points: instances and distinct counts sum
	// exactly (dataset namespaces are disjoint so signatures never collide);
	// RepeatedPct merges by instance-weighted average.
	merged := append([]analysis.OverlapPoint(nil), perCluster[0]...)
	for k := range merged {
		var num, den float64
		merged[k].Instances = 0
		merged[k].Distinct = 0
		for _, pts := range perCluster {
			if k >= len(pts) {
				continue
			}
			merged[k].Instances += pts[k].Instances
			merged[k].Distinct += pts[k].Distinct
			num += pts[k].RepeatedPct * float64(pts[k].Instances)
			den += float64(pts[k].Instances)
		}
		if den > 0 {
			merged[k].RepeatedPct = num / den
		}
		if merged[k].Distinct > 0 {
			merged[k].AvgRepeatFrequency = float64(merged[k].Instances) / float64(merged[k].Distinct)
		}
	}
	combined.Points = merged
	return combined, nil
}

// Figure8Result is the generalized-reuse opportunity analysis.
type Figure8Result struct {
	Groups []analysis.JoinSetGroup
}

// RunFigure8 records one week across the five clusters and groups join
// subexpressions by identical input sets (paper: frequencies in the 10s to
// 100s, i.e. large headroom beyond exact-match reuse).
func RunFigure8(days int, scale float64) (*Figure8Result, error) {
	if days <= 0 {
		days = 7
	}
	res := &Figure8Result{}
	for _, profile := range scaledProfiles(scale) {
		eng, err := recordWorkload(profile, days)
		if err != nil {
			return nil, err
		}
		groups := analysis.GeneralizedReuse(eng.Repo, fixtures.Epoch, fixtures.Epoch.AddDate(0, 0, days))
		res.Groups = append(res.Groups, groups...)
	}
	return res, nil
}

// Figure9Result is the concurrent-join analysis for one cluster-day.
type Figure9Result struct {
	Stats     []analysis.ConcurrentJoinStat
	Histogram map[string]map[int]int
	// Outliers are the highest concurrency levels observed (paper: 2016 and
	// 23040).
	Outliers []int
}

// RunFigure9 executes one full day (with cluster scheduling, so execution
// windows are real) on a burst-heavy cluster and measures concurrently
// executing identical joins, split by join algorithm.
func RunFigure9(scale float64) (*Figure9Result, error) {
	eng, err := runBusyDay(scale)
	if err != nil {
		return nil, err
	}
	stats := analysis.ConcurrentJoins(eng.Repo, fixtures.Epoch, fixtures.Epoch.AddDate(0, 0, 1))
	res := &Figure9Result{
		Stats:     stats,
		Histogram: analysis.ConcurrencyHistogram(stats),
	}
	for i := 0; i < len(stats) && i < 2; i++ {
		res.Outliers = append(res.Outliers, stats[i].Concurrency)
	}
	return res, nil
}

// scaledProfiles shrinks the five paper cluster profiles by the given factor
// (1.0 = full size).
func scaledProfiles(scale float64) []workload.ClusterProfile {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	profiles := workload.PaperClusterProfiles()
	for i := range profiles {
		p := &profiles[i]
		p.Pipelines = max(8, int(float64(p.Pipelines)*scale))
		p.PrefixPool = max(5, int(float64(p.PrefixPool)*scale))
		p.CookedDatasets = max(4, int(float64(p.CookedDatasets)*scale))
		p.RawStreams = max(3, int(float64(p.RawStreams)*scale))
		p.RowsPerRawDay = max(60, int(float64(p.RowsPerRawDay)*scale))
	}
	return profiles
}

// runBusyDay executes one full day (with cluster scheduling, so execution
// windows are real) on a burst-heavy Cluster1, the heaviest sharer, and
// returns the engine, whose repository holds that one cluster's day.
func runBusyDay(scale float64) (*core.Engine, error) {
	profile := scaledProfiles(scale)[0]
	profile.Pipelines *= 4      // one big busy cluster-day
	profile.BurstFraction = 0.6 // burst schedules drive concurrency
	profile.BurstWindow = 2 * time.Minute
	// Cosmos clusters run thousands of jobs concurrently; concurrency, not
	// queueing, is what these analyses measure, so the cluster is sized
	// generously.
	cat, gen, vcs, err := bootstrap(profile, 4000)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(core.Config{
		ClusterName: profile.Name,
		Catalog:     cat,
		ClusterCfg:  cluster.Config{Capacity: 50000, VCs: vcs},
	})
	if _, err := eng.RunDay(0, gen.JobsForDay(0)); err != nil {
		return nil, err
	}
	return eng, nil
}

// recordWorkload bootstraps a cluster and records `days` of compile-only
// telemetry into a fresh engine.
func recordWorkload(profile workload.ClusterProfile, days int) (*core.Engine, error) {
	cat, gen, _, err := bootstrap(profile, 0)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(core.Config{
		ClusterName: profile.Name,
		Catalog:     cat,
		ClusterCfg:  cluster.Config{Capacity: 1000},
	})
	for day := 0; day < days; day++ {
		if day > 0 {
			if err := gen.AdvanceDay(day); err != nil {
				return nil, err
			}
		}
		if err := eng.RecordWorkloadDay(gen.JobsForDay(day)); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// ConcurrentOpportunityResult is the §5.4 estimate: how much compute
// pipelined sharing among concurrent queries could save on one cluster-day.
type ConcurrentOpportunityResult struct {
	Report *analysis.PipelineReport
}

// RunConcurrentOpportunity reuses the Figure 9 cluster-day and estimates the
// §5.4 savings from pipelining intermediate results between concurrently
// executing queries.
func RunConcurrentOpportunity(scale float64) (*ConcurrentOpportunityResult, error) {
	eng, err := runBusyDay(scale)
	if err != nil {
		return nil, err
	}
	rep := analysis.PipelineOpportunity(eng.Repo, fixtures.Epoch, fixtures.Epoch.AddDate(0, 0, 1))
	return &ConcurrentOpportunityResult{Report: rep}, nil
}

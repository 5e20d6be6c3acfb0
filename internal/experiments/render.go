package experiments

import (
	"fmt"
	"sort"
	"strings"

	"cloudviews/internal/repository"
)

// RenderTable1 prints the production impact summary in the paper's layout.
func RenderTable1(t Table1) string {
	var b strings.Builder
	b.WriteString("Table 1: Production Impact Summary\n")
	b.WriteString("-----------------------------------------------\n")
	fmt.Fprintf(&b, "%-38s %10d\n", "Jobs", t.Jobs)
	fmt.Fprintf(&b, "%-38s %10d\n", "Pipelines", t.Pipelines)
	fmt.Fprintf(&b, "%-38s %10d\n", "Virtual Clusters", t.VirtualClusters)
	fmt.Fprintf(&b, "%-38s %10d\n", "Runtime Versions", t.RuntimeVersions)
	fmt.Fprintf(&b, "%-38s %10d\n", "Views Created", t.ViewsCreated)
	fmt.Fprintf(&b, "%-38s %10d\n", "Views Used", t.ViewsUsed)
	fmt.Fprintf(&b, "%-38s %9.2f%%\n", "Latency Improvement", t.LatencyImpPct)
	fmt.Fprintf(&b, "%-38s %9.2f%%\n", "Median Per-Job Latency Improvement", t.MedianLatencyImpPct)
	fmt.Fprintf(&b, "%-38s %9.2f%%\n", "Processing Time Improvement", t.ProcessingImpPct)
	fmt.Fprintf(&b, "%-38s %9.2f%%\n", "Bonus Processing Time Improvement", t.BonusImpPct)
	fmt.Fprintf(&b, "%-38s %9.2f%%\n", "Containers Count Improvement", t.ContainersImpPct)
	fmt.Fprintf(&b, "%-38s %9.2f%%\n", "Input Size Improvement", t.InputImpPct)
	fmt.Fprintf(&b, "%-38s %9.2f%%\n", "Data Read Improvement", t.DataReadImpPct)
	fmt.Fprintf(&b, "%-38s %9.2f%%\n", "Queuing Length Improvement", t.QueueImpPct)
	return b.String()
}

// RenderFigure6 prints the usage and latency/processing series (Figures
// 6a–6d): cumulative per-day values for both arms.
func RenderFigure6(r *ProductionResult) string {
	var b strings.Builder
	b.WriteString("Figure 6: usage and impact (cumulative per day)\n")
	b.WriteString("date        viewsBuilt viewsReused |   lat-base     lat-cv |  proc-base    proc-cv | bonus-base   bonus-cv\n")
	var vb, vr int
	var base, cv repository.Outcome
	for _, d := range r.Days {
		vb += d.CV.ViewsBuilt
		vr += d.CV.ViewsReused
		base.Add(d.Base.Outcome)
		cv.Add(d.CV.Outcome)
		fmt.Fprintf(&b, "%s %10d %11d | %10.0f %10.0f | %10.0f %10.0f | %10.0f %10.0f\n",
			d.Date.Format("2006-01-02"), vb, vr, base.LatencySec, cv.LatencySec,
			base.ProcessingSec, cv.ProcessingSec, base.BonusSec, cv.BonusSec)
	}
	return b.String()
}

// RenderFigure7 prints the containers/input/read/queue series (Figures
// 7a–7d).
func RenderFigure7(r *ProductionResult) string {
	var b strings.Builder
	b.WriteString("Figure 7: other impact (cumulative per day)\n")
	b.WriteString("date        cont-base    cont-cv |  inGB-base    inGB-cv |  rdGB-base    rdGB-cv | queue-base   queue-cv\n")
	var base, cv repository.Outcome
	for _, d := range r.Days {
		base.Add(d.Base.Outcome)
		cv.Add(d.CV.Outcome)
		fmt.Fprintf(&b, "%s %10d %10d | %10.1f %10.1f | %10.1f %10.1f | %10d %10d\n",
			d.Date.Format("2006-01-02"), base.Containers, cv.Containers,
			float64(base.InputBytes)/1e9, float64(cv.InputBytes)/1e9,
			float64(base.DataReadBytes)/1e9, float64(cv.DataReadBytes)/1e9,
			base.QueueLen, cv.QueueLen)
	}
	return b.String()
}

// RenderFigure2 prints each cluster's consumer CDF at decile resolution.
func RenderFigure2(results []Figure2Result) string {
	var b strings.Builder
	b.WriteString("Figure 2: shared data sets (distinct consumers per input stream)\n")
	b.WriteString("cluster    p10  p25  p50  p75  p90  p99  max  | top-10% inputs have >\n")
	for _, r := range results {
		q := func(p float64) int {
			if len(r.CDF) == 0 {
				return 0
			}
			i := int(p * float64(len(r.CDF)))
			if i >= len(r.CDF) {
				i = len(r.CDF) - 1
			}
			return r.CDF[i].Consumers
		}
		maxC := 0
		if len(r.CDF) > 0 {
			maxC = r.CDF[len(r.CDF)-1].Consumers
		}
		fmt.Fprintf(&b, "%-9s %4d %4d %4d %4d %4d %4d %4d  | %d consumers\n",
			r.Cluster, q(0.10), q(0.25), q(0.50), q(0.75), q(0.90), q(0.99), maxC, r.Top10Pct)
	}
	return b.String()
}

// RenderFigure3 prints the weekly overlap series.
func RenderFigure3(r *Figure3Result) string {
	var b strings.Builder
	b.WriteString("Figure 3: overlaps per week\n")
	b.WriteString("week-start   repeated%%  avg-repeat-freq  instances   distinct\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%s   %8.1f  %15.2f  %9d  %9d\n",
			p.Start.Format("2006-01-02"), p.RepeatedPct, p.AvgRepeatFrequency, p.Instances, p.Distinct)
	}
	return b.String()
}

// RenderFigure8 prints the top generalized-reuse groups.
func RenderFigure8(r *Figure8Result, topN int) string {
	var b strings.Builder
	b.WriteString("Figure 8: subexpressions joining the same input sets\n")
	b.WriteString("rank  frequency  distinct-subexprs  inputs\n")
	groups := r.Groups
	if topN > 0 && len(groups) > topN {
		groups = groups[:topN]
	}
	for i, g := range groups {
		fmt.Fprintf(&b, "%4d  %9d  %17d  %s\n", i+1, g.Frequency, g.DistinctSubexprs, strings.Join(g.Datasets, " ⋈ "))
	}
	return b.String()
}

// RenderFigure9 prints the concurrency histogram by join algorithm.
func RenderFigure9(r *Figure9Result) string {
	var b strings.Builder
	b.WriteString("Figure 9: concurrently executing identical joins (one cluster-day)\n")
	algos := make([]string, 0, len(r.Histogram))
	for a := range r.Histogram {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	for _, algo := range algos {
		levels := make([]int, 0, len(r.Histogram[algo]))
		for l := range r.Histogram[algo] {
			levels = append(levels, l)
		}
		sort.Ints(levels)
		fmt.Fprintf(&b, "%s:\n", algo)
		for _, l := range levels {
			fmt.Fprintf(&b, "  concurrency %4d : %d join signature(s)\n", l, r.Histogram[algo][l])
		}
	}
	if len(r.Outliers) > 0 {
		fmt.Fprintf(&b, "outliers (peak concurrency): %v\n", r.Outliers)
	}
	return b.String()
}

// RenderConcurrentOpportunity prints the §5.4 estimate.
func RenderConcurrentOpportunity(r *ConcurrentOpportunityResult, topN int) string {
	var b strings.Builder
	b.WriteString("Concurrent-query reuse opportunity (§5.4, one cluster-day)\n")
	b.WriteString("rank  op         instances  saved(cs)\n")
	for i, s := range r.Report.Sharings {
		if topN > 0 && i >= topN {
			break
		}
		fmt.Fprintf(&b, "%4d  %-9s %10d  %9.1f\n", i+1, s.Op, s.Instances, s.SavedWork)
	}
	if r.Report.TotalWork > 0 {
		fmt.Fprintf(&b, "total: %.0f container-sec could be pipelined away (%.1f%% of the day)\n",
			r.Report.TotalSaved, 100*r.Report.TotalSaved/r.Report.TotalWork)
	}
	return b.String()
}

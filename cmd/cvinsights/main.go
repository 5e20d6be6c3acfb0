// Command cvinsights is the analogue of the SparkCruise "Workload Insights
// Notebook" (paper §5.5): it analyzes a workload's telemetry and prints the
// aggregate statistics and redundancy report that help a customer decide
// whether enabling computation reuse would pay off — "the results from the
// notebook can convince the users to enable the computation reuse feature on
// their workloads".
//
// Usage:
//
//	cvinsights [-days 3] [-scale 0.5] [-top 15]
//
// The tool generates a representative cluster workload, records its
// compile-time telemetry, and reports: workload composition, subexpression
// overlap, the top reuse candidates with expected savings, and per-VC
// breakdowns.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/compress"
	"cloudviews/internal/core"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/lineage"
	"cloudviews/internal/workload"
)

func main() {
	days := flag.Int("days", 3, "telemetry window in days")
	scale := flag.Float64("scale", 0.5, "workload scale (1.0 = paper-sized cluster)")
	top := flag.Int("top", 15, "top candidates to display")
	flag.Parse()
	if err := run(os.Stdout, *days, *scale, *top); err != nil {
		fmt.Fprintf(os.Stderr, "cvinsights: %v\n", err)
		os.Exit(1)
	}
}

// run produces the full insights report on w. Extracted from main so the
// report format can be golden-tested.
func run(w io.Writer, days int, scale float64, top int) error {
	profile := workload.DefaultProfile("Insights")
	profile.Pipelines = int(float64(profile.Pipelines) * 2 * scale)
	if profile.Pipelines < 10 {
		profile.Pipelines = 10
	}

	cat := catalog.New()
	gen := workload.NewGenerator(cat, profile)
	if err := gen.Bootstrap(); err != nil {
		return err
	}
	var vcCfgs []cluster.VCConfig
	for _, vc := range gen.VCNames() {
		vcCfgs = append(vcCfgs, cluster.VCConfig{Name: vc, Tokens: 40})
	}
	eng := core.NewEngine(core.Config{
		ClusterName: profile.Name,
		Catalog:     cat,
		ClusterCfg:  cluster.Config{Capacity: 400, VCs: vcCfgs},
	})

	fmt.Fprintf(w, "collecting %d day(s) of workload telemetry from %d pipelines...\n\n", days, profile.Pipelines)
	for day := 0; day < days; day++ {
		if day > 0 {
			if err := gen.AdvanceDay(day); err != nil {
				return err
			}
		}
		if _, err := eng.RunDay(day, gen.JobsForDay(day)); err != nil {
			return err
		}
	}

	from := fixtures.Epoch
	to := fixtures.Epoch.AddDate(0, 0, days)
	repo := eng.Repo

	// --- Workload composition -------------------------------------------
	jobs := repo.JobsBetween(from, to)
	pipelines := map[string]bool{}
	users := map[string]bool{}
	vcs := map[string]bool{}
	templates := map[string]int{}
	var totalWork float64
	for _, j := range jobs {
		pipelines[j.Pipeline] = true
		users[j.User] = true
		vcs[j.VC] = true
		templates[string(j.Template)]++
		totalWork += j.ProcessingSec
	}
	recurringJobs := 0
	for _, n := range templates {
		if n > 1 {
			recurringJobs += n
		}
	}
	fmt.Fprintln(w, "WORKLOAD COMPOSITION")
	fmt.Fprintf(w, "  jobs                 %8d\n", len(jobs))
	fmt.Fprintf(w, "  pipelines            %8d\n", len(pipelines))
	fmt.Fprintf(w, "  users                %8d\n", len(users))
	fmt.Fprintf(w, "  virtual clusters     %8d\n", len(vcs))
	fmt.Fprintf(w, "  subexpressions       %8d\n", repo.SubexprCount())
	fmt.Fprintf(w, "  recurring job share  %7.1f%%\n", 100*float64(recurringJobs)/float64(len(jobs)))
	fmt.Fprintf(w, "  total processing     %8.0f container-sec\n\n", totalWork)

	// --- Redundancy -------------------------------------------------------
	groups := repo.GroupByRecurring(from, to)
	instances, repeated, reusable := 0, 0, 0
	for _, g := range groups {
		instances += g.Count
		if g.Count > 1 {
			repeated += g.Count
		}
		if g.Count-g.DistinctStrict > 0 && g.Eligible {
			reusable += g.Count - g.DistinctStrict
		}
	}
	fmt.Fprintln(w, "REDUNDANCY")
	fmt.Fprintf(w, "  distinct subexpressions      %8d\n", len(groups))
	fmt.Fprintf(w, "  repeated instances           %7.1f%%\n", 100*float64(repeated)/float64(instances))
	fmt.Fprintf(w, "  avg repeat frequency         %8.2f\n", float64(instances)/float64(len(groups)))
	fmt.Fprintf(w, "  reusable instances (exact)   %8d\n\n", reusable)

	// --- Candidates -------------------------------------------------------
	byVC, rejected := analysis.SelectViews(repo, from, to, analysis.SelectionConfig{
		ScheduleAware: true, UseBigSubs: true,
	})
	type flat struct {
		vc string
		c  analysis.Candidate
	}
	var all []flat
	var expectedSavings float64
	for vc, cands := range byVC {
		for _, c := range cands {
			all = append(all, flat{vc, c})
			expectedSavings += c.Utility
		}
	}
	// Full ordering (not just utility) so the report is byte-stable across
	// runs: `all` is assembled from map iteration.
	sort.Slice(all, func(i, j int) bool {
		if all[i].c.Utility != all[j].c.Utility {
			return all[i].c.Utility > all[j].c.Utility
		}
		if all[i].vc != all[j].vc {
			return all[i].vc < all[j].vc
		}
		return all[i].c.Recurring < all[j].c.Recurring
	})

	fmt.Fprintln(w, "TOP REUSE CANDIDATES (expected per-window savings)")
	fmt.Fprintln(w, "  rank  op         freq  utility(cs)  storage(MB)  vc")
	for i, f := range all {
		if i >= top {
			break
		}
		fmt.Fprintf(w, "  %4d  %-9s %5d  %11.1f  %11.1f  %s\n",
			i+1, f.c.Op, f.c.Frequency, f.c.Utility, float64(f.c.StorageCost)/1e6, f.vc)
	}
	fmt.Fprintf(w, "\n  candidates selected: %d (%d rejected as schedule-concurrent)\n", len(all), rejected)
	if totalWork > 0 {
		fmt.Fprintf(w, "  expected compute savings if enabled: %.0f container-sec (%.1f%% of the window)\n",
			expectedSavings, 100*expectedSavings/totalWork)
	}

	// --- Per-VC breakdown --------------------------------------------------
	fmt.Fprintln(w, "\nPER-VC BREAKDOWN")
	vcNames := make([]string, 0, len(byVC))
	for vc := range byVC {
		vcNames = append(vcNames, vc)
	}
	sort.Strings(vcNames)
	for _, vc := range vcNames {
		var u float64
		var storageNeed int64
		for _, c := range byVC[vc] {
			u += c.Utility
			storageNeed += c.StorageCost
		}
		fmt.Fprintf(w, "  %-18s %3d views, %10.1f cs saved, %8.1f MB storage\n",
			vc, len(byVC[vc]), u, float64(storageNeed)/1e6)
	}
	// --- Lineage (§5.2 dependency surfacing) -------------------------------
	producers := map[string]string{}
	for _, name := range cat.Names() {
		if ds, ok := cat.Dataset(name); ok && ds.Producer() != "" {
			producers[name] = ds.Producer()
		}
	}
	g := lineage.Build(repo, from, to, producers)
	fmt.Fprintln(w, "\nPIPELINE DEPENDENCIES")
	fmt.Fprintf(w, "  datasets in the graph         %6d\n", len(g.Datasets))
	fmt.Fprintf(w, "  pipelines depending on others %5.1f%%  (paper: ~80%%)\n", 100*g.DependentShare())
	recs := g.RecommendPhysicalDesigns(5)
	for i, rec := range recs {
		if i >= 5 {
			break
		}
		fmt.Fprintf(w, "  tailor %-22s for %2d consumers (%d reads) — %s\n",
			rec.Dataset, rec.Consumers, rec.Reads, "producer: "+rec.Producer)
	}

	// --- Workload compression (§5.2) ---------------------------------------
	cres := compress.Compress(repo, from, to)
	fmt.Fprintln(w, "\nWORKLOAD COMPRESSION (pre-production representative set)")
	fmt.Fprintf(w, "  representative templates  %6d (%.1f%% of all templates)\n",
		len(cres.Representatives), 100*cres.CompressionRatio)
	fmt.Fprintf(w, "  subexpression coverage    %6d / %d\n", cres.CoveredSubexprs, cres.TotalSubexprs)
	if cres.TotalWork > 0 {
		fmt.Fprintf(w, "  weighted compute coverage %5.1f%%\n", 100*cres.CoveredWork/cres.TotalWork)
	}

	// --- System metrics (observability layer) ------------------------------
	// The export order is deterministic, so this section is golden-testable
	// like the rest of the report.
	fmt.Fprintln(w, "\nSYSTEM METRICS (Prometheus text format)")
	fmt.Fprint(w, eng.Metrics.ExportString())

	fmt.Fprintln(w, "\nverdict: enable CloudViews on the VCs above to capture these savings automatically.")
	return nil
}

// Recurringfleet: a multi-day recurring workload through the full feedback
// loop — the miniature version of the paper's production deployment.
//
// A generated fleet of recurring pipelines (cooking + analytics with shared
// prefixes + ad-hoc noise) runs for a week, twice: once as baseline and once
// with CloudViews enabled after a two-day onboarding ramp. The daily output
// mirrors Figures 6a–6c: views built/reused and the latency and processing
// improvements as the feedback loop warms up.
//
// Run with: go run ./examples/recurringfleet
package main

import (
	"fmt"
	"log"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/core"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/repository"
	"cloudviews/internal/workload"
)

const days = 7

func main() {
	profile := workload.DefaultProfile("fleet")
	profile.Pipelines = 40
	profile.PrefixPool = 16
	profile.RowsPerRawDay = 250

	base := runArm(profile, false)
	cv := runArm(profile, true)

	fmt.Println("day  jobs  built reused |   latency(s) base → cv    |  processing(cs) base → cv")
	var b, c repository.Outcome
	for d := 0; d < days; d++ {
		b.Add(base[d].Outcome)
		c.Add(cv[d].Outcome)
		fmt.Printf("%3d  %4d  %5d %6d | %11.0f → %-11.0f | %12.0f → %-12.0f\n",
			d, cv[d].Jobs, cv[d].ViewsBuilt, cv[d].ViewsReused,
			base[d].LatencySec, cv[d].LatencySec,
			base[d].ProcessingSec, cv[d].ProcessingSec)
	}
	fmt.Printf("\ncumulative: latency %.1f%% better, processing %.1f%% better\n",
		100*(b.LatencySec-c.LatencySec)/b.LatencySec, 100*(b.ProcessingSec-c.ProcessingSec)/b.ProcessingSec)
}

func runArm(profile workload.ClusterProfile, enable bool) []core.DayMetrics {
	cat := catalog.New()
	gen := workload.NewGenerator(cat, profile)
	if err := gen.Bootstrap(); err != nil {
		log.Fatal(err)
	}
	var vcCfgs []cluster.VCConfig
	for _, vc := range gen.VCNames() {
		vcCfgs = append(vcCfgs, cluster.VCConfig{Name: vc, Tokens: 30})
	}
	eng := core.NewEngine(core.Config{
		ClusterName: profile.Name,
		Catalog:     cat,
		ClusterCfg:  cluster.Config{Capacity: 300, VCs: vcCfgs},
		Selection:   analysis.SelectionConfig{ScheduleAware: true, UseBigSubs: true},
	})

	var out []core.DayMetrics
	for day := 0; day < days; day++ {
		if day > 0 {
			if err := gen.AdvanceDay(day); err != nil {
				log.Fatal(err)
			}
		}
		// Opt-in ramp: half the VCs on day 1, all from day 2.
		if enable && day >= 1 {
			names := gen.VCNames()
			limit := len(names)
			if day == 1 {
				limit = (len(names) + 1) / 2
			}
			for _, vc := range names[:limit] {
				eng.OnboardVC(vc)
			}
		}
		m, err := eng.RunDay(day, gen.JobsForDay(day))
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, m)
		if enable {
			to := fixtures.Epoch.AddDate(0, 0, day+1)
			eng.RunAnalysis(to.AddDate(0, 0, -7), to)
		}
	}
	return out
}

package experiments

import (
	"fmt"
	"strings"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/core"
	"cloudviews/internal/fault"
	"cloudviews/internal/telemetry"
	"cloudviews/internal/workload"
)

// The guard storm is the guarded-vs-unguarded chaos experiment: the same
// CloudViews-enabled workload runs twice under an identical seeded
// storage.view.read fault storm on the first VC's view artifacts, over days
// [Days/3, 2·Days/3). One arm runs naked; the other runs with the guard
// subsystem (circuit breakers + per-VC kill switch) closing the loop.
const (
	// stormRate is the per-read failure probability during the storm:
	// every targeted read fails.
	stormRate = 1
	// stormBreakerMinFallbacks is the guarded arm's breaker floor. Two
	// same-day fallbacks quarantine a signature, which keeps the guarded
	// arm's storm-day fallback total under the fault budget (stormRules)
	// while the unguarded arm replays the full storm every day.
	stormBreakerMinFallbacks = 2
	// guardMinDays is the scaled storm window's floor, so each third of it
	// spans at least three days.
	guardMinDays = 9
)

// DefaultGuardComparison is a window sized so the storm has views to corrupt:
// reuse ramps up, the storm hits the middle third, and the tail shows
// recovery. Faults.Seed keys the storm.
func DefaultGuardComparison() ProductionConfig {
	return ProductionConfig{
		Profile:   DeploymentProfile(),
		Days:      18,
		RampDays:  2,
		Capacity:  400,
		Selection: analysis.SelectionConfig{ScheduleAware: true, UseBigSubs: true},
		Faults:    fault.Config{Seed: 2020},
	}
}

// inStorm reports whether day falls in cfg's storm window.
func inStorm(cfg ProductionConfig, day int) bool {
	return day >= cfg.Days/3 && day < 2*cfg.Days/3
}

// withStorm adds the storm to f: while *active is set, every view read of an
// artifact under vc fails. Targeting uses the artifact path, which embeds
// the home VC (storage.PathFor). f's other points keep their rates.
func withStorm(f fault.Config, vc string, active *bool) fault.Config {
	rates := map[fault.Point]float64{fault.ViewRead: stormRate}
	for p, r := range f.Rates {
		if p != fault.ViewRead {
			rates[p] = r
		}
	}
	needle := "/" + vc + "/"
	f.Rates = rates
	f.Filter = func(p fault.Point, key string) bool {
		return p != fault.ViewRead || *active && strings.Contains(key, needle)
	}
	return f
}

// stormRules derives the storm's SLO rules from the workload size so the
// verdict split survives -scale. The storm targets one VC, whose
// recurring-signature population is about Pipelines/VCs. The breaker floor
// lets each stormed signature fall back stormBreakerMinFallbacks (2) times
// before quarantine, so the guarded arm's worst storm day costs ~2× the
// per-VC signature count; the unguarded arm replays the whole storm (≥3×)
// every storm day. A fault-spike budget of 3× sits between.
//
// The storm's arrival day spikes queue lengths in BOTH arms — the breaker
// needs that day's observations before it can trip, so no guard can prevent
// the first transient. The day-over-day queue rule therefore fires
// identically in both arms and discriminates nothing; it is relaxed so
// fault-spike carries the verdict split.
func stormRules(p workload.ClusterProfile) []telemetry.Rule {
	budget := float64(3 * p.Pipelines / p.VCs)
	return telemetry.WithThreshold(
		telemetry.WithThreshold(telemetry.DefaultRules(), "fault-spike", budget),
		"queue-growth", 1000)
}

// GuardDayPair holds both arms' metrics for one day.
type GuardDayPair struct {
	Date      time.Time
	Storm     bool
	Unguarded core.DayMetrics
	Guarded   core.DayMetrics
}

// GuardComparisonResult is the chaos experiment's outcome.
type GuardComparisonResult struct {
	Cfg  ProductionConfig
	Days []GuardDayPair
	// GuardLog is the guarded arm's full decision log (byte-identical per
	// seed).
	GuardLog string
	// UnguardedAlerts / GuardedAlerts are the arms' SLO watchdog findings.
	UnguardedAlerts []telemetry.Alert
	GuardedAlerts   []telemetry.Alert
}

// Verdicts returns the per-arm SLO verdicts, unguarded first. The CI smoke
// asserts the unguarded arm REGRESSED while the guarded arm stays OK.
func (r *GuardComparisonResult) Verdicts() (unguarded, guarded string) {
	return telemetry.Verdict(r.UnguardedAlerts), telemetry.Verdict(r.GuardedAlerts)
}

// RunGuardComparison runs the unguarded and the guarded arm over the
// identical workload and storm schedule. Nil SLORules are stormRules.
func RunGuardComparison(cfg ProductionConfig) (*GuardComparisonResult, error) {
	if cfg.SLORules == nil && cfg.Profile.VCs > 0 {
		cfg.SLORules = stormRules(cfg.Profile)
	}
	ung, grd, err := runPair(cfg,
		arm{name: "unguarded", reuse: true, storm: true},
		arm{name: "guarded", reuse: true, guarded: true, storm: true})
	if err != nil {
		return nil, err
	}
	res := &GuardComparisonResult{
		Cfg:             cfg,
		GuardLog:        grd.guardLog,
		UnguardedAlerts: ung.tele.Alerts,
		GuardedAlerts:   grd.tele.Alerts,
	}
	for i := range ung.days {
		res.Days = append(res.Days, GuardDayPair{
			Date:      ung.days[i].Date,
			Storm:     inStorm(cfg, i),
			Unguarded: ung.days[i],
			Guarded:   grd.days[i],
		})
	}
	return res, nil
}

// RenderGuardFigure prints the guarded-vs-unguarded series: per-day reuse
// fallbacks and hit counts for both arms, with the storm window marked — the
// artifact the CI chaos gate uploads.
func RenderGuardFigure(r *GuardComparisonResult) string {
	var b strings.Builder
	unv, gv := r.Verdicts()
	fmt.Fprintf(&b, "Guarded vs unguarded reuse under a storage.view.read fault storm (days %d..%d, seed %d)\n",
		r.Cfg.Days/3, 2*r.Cfg.Days/3-1, r.Cfg.Faults.Seed)
	fmt.Fprintf(&b, "verdicts: unguarded=%s guarded=%s\n", unv, gv)
	b.WriteString("date       storm | fb-unguard   fb-guard | hit-unguard  hit-guard | alerts-u alerts-g guard-decisions\n")
	for _, d := range r.Days {
		mark := " "
		if d.Storm {
			mark = "*"
		}
		fmt.Fprintf(&b, "%s   %s   | %10d %10d | %11d %10d | %8d %8d %15d\n",
			d.Date.Format("2006-01-02"), mark,
			d.Unguarded.ReuseFallbacks, d.Guarded.ReuseFallbacks,
			d.Unguarded.ViewsReused, d.Guarded.ViewsReused,
			len(d.Unguarded.Alerts), len(d.Guarded.Alerts), len(d.Guarded.GuardDecisions))
	}
	if r.GuardLog != "" {
		b.WriteString("\nguard decision log:\n")
		b.WriteString(r.GuardLog)
		b.WriteString("\n")
	}
	return b.String()
}

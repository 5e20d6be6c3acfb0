package experiments

import (
	"fmt"
	"strings"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/core"
	"cloudviews/internal/fault"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/guard"
	"cloudviews/internal/telemetry"
	"cloudviews/internal/workload"
)

// GuardComparisonConfig sizes the guarded-vs-unguarded chaos experiment: the
// same CloudViews-enabled workload runs twice under an identical seeded
// storage.view.read fault storm targeting one VC's view artifacts for a span
// of simulated days. One arm runs naked; the other runs with the guard
// subsystem (circuit breakers + per-VC kill switch) closing the loop.
type GuardComparisonConfig struct {
	Profile workload.ClusterProfile
	// Days is the window length; the storm occupies [StormStart, StormEnd).
	Days               int
	RampDays           int
	AnalysisWindowDays int
	Capacity           int
	VCTokens           int
	Selection          analysis.SelectionConfig
	// StormVC is the VC whose view artifacts the storm corrupts (default:
	// the profile's first VC). Targeting uses the artifact path, which
	// embeds the home VC (storage.PathFor).
	StormVC string
	// StormStart / StormEnd bound the storm in days (defaults: one third to
	// two thirds of the window).
	StormStart, StormEnd int
	// StormRate is the per-read failure probability during the storm
	// (default 1: every targeted read fails).
	StormRate float64
	// FaultSeed keys the storm schedule; both arms share it.
	FaultSeed uint64
	// Guard configures the guarded arm (Enabled is forced on).
	Guard guard.Config
	// SLORules is the telemetry watchdog's rule list, applied to BOTH arms
	// (nil = the default list with the fault budget derived from workload
	// size in withDefaults).
	SLORules []telemetry.Rule
}

// DefaultGuardComparison is a window sized so the storm has views to corrupt:
// reuse ramps up, the storm hits the middle third, and the tail shows
// recovery.
func DefaultGuardComparison() GuardComparisonConfig {
	profile := DeploymentProfile()
	return GuardComparisonConfig{
		Profile:            profile,
		Days:               18,
		RampDays:           2,
		AnalysisWindowDays: 7,
		Capacity:           400,
		VCTokens:           12,
		Selection:          analysis.SelectionConfig{ScheduleAware: true, UseBigSubs: true},
		StormRate:          1,
		FaultSeed:          2020,
		// An aggressive breaker floor (2 fallbacks quarantine a signature)
		// keeps the guarded arm's storm-day fallback total under the fault
		// budget, while the unguarded arm replays the full storm every day.
		// The budget itself is derived from workload size in withDefaults.
		Guard: guard.Config{BreakerMinFallbacks: 2},
	}
}

// Scale shrinks the guard experiment proportionally, mirroring
// ProductionConfig.Scale; the floors keep the storm non-vacuous.
func (c GuardComparisonConfig) Scale(factor float64) GuardComparisonConfig {
	scaled := c
	scaled.Profile.Pipelines = maxInt(10, int(float64(c.Profile.Pipelines)*factor))
	scaled.Profile.PrefixPool = maxInt(6, int(float64(c.Profile.PrefixPool)*factor))
	scaled.Profile.CookedDatasets = maxInt(4, int(float64(c.Profile.CookedDatasets)*factor))
	scaled.Profile.RawStreams = maxInt(3, int(float64(c.Profile.RawStreams)*factor))
	scaled.Profile.VCs = maxInt(2, int(float64(c.Profile.VCs)*factor))
	scaled.Days = maxInt(9, int(float64(c.Days)*factor))
	scaled.RampDays = maxInt(2, int(float64(c.RampDays)*factor))
	scaled.Capacity = maxInt(80, int(float64(c.Capacity)*factor))
	return scaled
}

func (c GuardComparisonConfig) withDefaults() GuardComparisonConfig {
	if c.StormRate <= 0 {
		c.StormRate = 1
	}
	if c.StormEnd <= c.StormStart {
		c.StormStart = c.Days / 3
		c.StormEnd = 2 * c.Days / 3
	}
	if c.SLORules == nil && c.Profile.VCs > 0 {
		// Derive the per-day fault-recovery budget from workload size so the
		// verdict split survives -scale: the storm targets one VC, whose
		// recurring-signature population is about Pipelines/VCs. The breaker
		// floor lets each stormed signature fall back BreakerMinFallbacks
		// (2 in DefaultGuardComparison) times before quarantine, so the
		// guarded arm's worst storm day costs ~2× the per-VC signature
		// count; the unguarded arm replays the whole storm (≥3×) every storm
		// day. 3× sits between.
		budget := float64(3 * c.Profile.Pipelines / c.Profile.VCs)
		// The storm's arrival day spikes queue lengths in BOTH arms — the
		// breaker needs that day's observations before it can trip, so no
		// guard can prevent the first transient. The day-over-day queue rule
		// therefore fires identically in both arms and discriminates
		// nothing; relax it and let fault-spike carry the verdict split.
		c.SLORules = telemetry.WithThreshold(
			telemetry.WithThreshold(telemetry.DefaultRules(), "fault-spike", budget),
			"queue-growth", 1000)
	}
	return c
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
	Cfg  GuardComparisonConfig
	Days []GuardDayPair
	// GuardLog is the guarded arm's full decision log (byte-identical per
	// seed); Snapshot its final breaker/VC state.
	GuardLog string
	Snapshot guard.Snapshot
	// UnguardedAlerts / GuardedAlerts are the arms' SLO watchdog findings.
	UnguardedAlerts []telemetry.Alert
	GuardedAlerts   []telemetry.Alert
}

// Verdicts returns the per-arm SLO verdicts, unguarded first. The CI smoke
// asserts the unguarded arm REGRESSED while the guarded arm stays OK.
func (r *GuardComparisonResult) Verdicts() (unguarded, guarded string) {
	return telemetry.Verdict(r.UnguardedAlerts), telemetry.Verdict(r.GuardedAlerts)
}

// RunGuardComparison executes the two arms over the identical workload and
// storm schedule.
func RunGuardComparison(cfg GuardComparisonConfig) (*GuardComparisonResult, error) {
	cfg = cfg.withDefaults()
	ung, err := runGuardArm(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("unguarded arm: %w", err)
	}
	grd, err := runGuardArm(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("guarded arm: %w", err)
	}
	res := &GuardComparisonResult{
		Cfg:             cfg,
		GuardLog:        grd.guardLog,
		Snapshot:        grd.guardSnap,
		UnguardedAlerts: ung.alerts,
		GuardedAlerts:   grd.alerts,
	}
	for i := range ung.days {
		res.Days = append(res.Days, GuardDayPair{
			Date:      ung.days[i].Date,
			Storm:     i >= cfg.StormStart && i < cfg.StormEnd,
			Unguarded: ung.days[i],
			Guarded:   grd.days[i],
		})
	}
	return res, nil
}

type guardArmResult struct {
	days      []core.DayMetrics
	alerts    []telemetry.Alert
	guardLog  string
	guardSnap guard.Snapshot
}

func runGuardArm(cfg GuardComparisonConfig, guarded bool) (*guardArmResult, error) {
	cat := catalog.New()
	gen := workload.NewGenerator(cat, cfg.Profile)
	if err := gen.Bootstrap(); err != nil {
		return nil, err
	}
	vcNames := gen.VCNames()
	stormVC := cfg.StormVC
	if stormVC == "" && len(vcNames) > 0 {
		stormVC = vcNames[0]
	}
	var vcCfgs []cluster.VCConfig
	for _, vc := range vcNames {
		vcCfgs = append(vcCfgs, cluster.VCConfig{Name: vc, Tokens: cfg.VCTokens})
	}

	// The storm is a targeted view-read fault: it fires only while the storm
	// window is active (the flag flips between the serial RunDay calls, so
	// the schedule stays deterministic) and only against artifacts whose
	// path lives under the storm VC.
	stormActive := false
	needle := "/" + stormVC + "/"
	gcfg := cfg.Guard
	gcfg.Enabled = guarded
	eng := core.NewEngine(core.Config{
		ClusterName: cfg.Profile.Name,
		Catalog:     cat,
		ClusterCfg:  cluster.Config{Capacity: cfg.Capacity, VCs: vcCfgs},
		Selection:   cfg.Selection,
		SLORules:    cfg.SLORules,
		Guard:       gcfg,
		Faults: fault.Config{
			Seed:  cfg.FaultSeed,
			Rates: map[fault.Point]float64{fault.ViewRead: cfg.StormRate},
			Filter: func(p fault.Point, key string) bool {
				return stormActive && strings.Contains(key, needle)
			},
		},
	})

	arm := &guardArmResult{}
	onboarded := 0
	for day := 0; day < cfg.Days; day++ {
		if day > 0 {
			if err := gen.AdvanceDay(day); err != nil {
				return nil, err
			}
		}
		target := len(vcNames)
		if cfg.RampDays > 0 && day < cfg.RampDays {
			target = (day + 1) * len(vcNames) / cfg.RampDays
		}
		for ; onboarded < target; onboarded++ {
			eng.OnboardVC(vcNames[onboarded])
		}
		stormActive = day >= cfg.StormStart && day < cfg.StormEnd
		m, err := eng.RunDay(day, gen.JobsForDay(day))
		if err != nil {
			return nil, err
		}
		arm.days = append(arm.days, m)
		win := time.Duration(cfg.AnalysisWindowDays) * 24 * time.Hour
		to := fixtures.Epoch.AddDate(0, 0, day+1)
		eng.RunAnalysis(to.Add(-win), to)
	}
	if tele := eng.Telemetry.Snapshot(); tele != nil {
		arm.alerts = tele.Alerts
	}
	if g := eng.Guard(); g != nil {
		arm.guardLog = g.RenderLog()
		arm.guardSnap = g.Snapshot()
	}
	return arm, nil
}

// RenderGuardFigure prints the guarded-vs-unguarded series: per-day reuse
// fallbacks and hit counts for both arms, with the storm window marked — the
// artifact the CI chaos gate uploads.
func RenderGuardFigure(r *GuardComparisonResult) string {
	var b strings.Builder
	unv, gv := r.Verdicts()
	fmt.Fprintf(&b, "Guarded vs unguarded reuse under a storage.view.read fault storm (days %d..%d, seed %d)\n",
		r.Cfg.StormStart, r.Cfg.StormEnd-1, r.Cfg.FaultSeed)
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

// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 and Figures 6a–d / 7a–d from the two-month production
// window (an A/B run of the same generated workload with and without
// CloudViews), and Figures 2, 3, 8, 9 from the workload analyses. Absolute
// numbers depend on the simulator's cost model; the reproduced quantities are
// the shapes — who wins, by what factor, and where the effects concentrate.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/core"
	"cloudviews/internal/fault"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/guard"
	"cloudviews/internal/repository"
	"cloudviews/internal/storage"
	"cloudviews/internal/telemetry"
	"cloudviews/internal/workload"
)

// ProductionConfig sizes one A/B experiment over a generated workload: the
// Table 1 / Figures 6–7 production window (DefaultProduction) or the guard
// storm (DefaultGuardComparison).
type ProductionConfig struct {
	Profile workload.ClusterProfile
	// Days is the window length (paper: two months ≈ 59 days).
	Days int
	// RampDays is the opt-in onboarding period: VCs are enabled tier by tier
	// over this many days (drives the Figure 6a ramp).
	RampDays int
	// Capacity sizes the cluster; every VC gets vcTokens tokens.
	Capacity int
	// Selection is the nightly analysis's view selection (the ablation
	// benchmarks vary it).
	Selection analysis.SelectionConfig
	// Faults injects deterministic failures into BOTH arms identically
	// (same seed, same rates), so the A/B comparison stays fair under
	// chaos. The zero value disables injection. The guard storm adds its
	// view-read storm on top and takes its seed from here.
	Faults fault.Config
	// SLORules is the telemetry watchdog's rule list, applied to BOTH arms
	// (same thresholds, so per-arm verdicts compare like for like). Nil is
	// telemetry.DefaultRules(), silent on healthy runs; the guard storm
	// derives its own from the workload size (stormRules).
	SLORules []telemetry.Rule
	// StoreFactory, when set, supplies each arm's view-store backend (e.g.
	// a file-backed durable engine rooted in a per-arm data directory),
	// given the arm's name. Both arms' stores are opened before either arm
	// runs. Engines that implement io.Closer are closed when the arm
	// finishes, and a failed close fails the run. Nil keeps the in-memory
	// default for every arm.
	StoreFactory func(arm string) (storage.Engine, error)
}

const (
	// analysisWindow is the trailing window the nightly analysis reads.
	analysisWindow = 7 * 24 * time.Hour
	// vcTokens is every VC's token share of the cluster.
	vcTokens = 12
)

// DeploymentProfile mirrors the paper's production deployment shape: 21
// virtual clusters, 619 pipelines, 12 SCOPE runtime versions.
func DeploymentProfile() workload.ClusterProfile {
	p := workload.DefaultProfile("Prod")
	p.VCs = 21
	p.Pipelines = 619
	p.RawStreams = 40
	p.CookedDatasets = 60
	p.DimTables = 8
	p.PrefixPool = 220
	p.SharingSkew = 1.3
	p.RuntimeVersions = 12
	p.RowsPerRawDay = 400
	p.RawScaleFactor = 1_000_000
	p.BurstFraction = 0.15
	p.Seed = 2020
	return p
}

// DefaultProduction is the full two-month configuration.
func DefaultProduction() ProductionConfig {
	return ProductionConfig{
		Profile:   DeploymentProfile(),
		Days:      59, // Feb 1 – Mar 30, 2020
		RampDays:  14,
		Capacity:  400,
		Selection: analysis.SelectionConfig{ScheduleAware: true, UseBigSubs: true},
	}
}

// Scale shrinks the experiment for tests and benchmarks: factor 0.25 runs a
// quarter of the pipelines and days (minimums keep it meaningful).
func (c ProductionConfig) Scale(factor float64) ProductionConfig {
	scaled := c
	scaled.Profile.Pipelines = max(10, int(float64(c.Profile.Pipelines)*factor))
	scaled.Profile.PrefixPool = max(6, int(float64(c.Profile.PrefixPool)*factor))
	scaled.Profile.CookedDatasets = max(4, int(float64(c.Profile.CookedDatasets)*factor))
	scaled.Profile.RawStreams = max(3, int(float64(c.Profile.RawStreams)*factor))
	scaled.Profile.VCs = max(2, int(float64(c.Profile.VCs)*factor))
	scaled.Days = max(6, int(float64(c.Days)*factor))
	scaled.RampDays = max(2, int(float64(c.RampDays)*factor))
	scaled.Capacity = max(80, int(float64(c.Capacity)*factor))
	return scaled
}

// DayPair holds both arms' metrics for one day.
type DayPair struct {
	Date time.Time
	Base core.DayMetrics
	CV   core.DayMetrics
}

// Table1 is the production impact summary (paper Table 1).
type Table1 struct {
	Jobs            int
	Pipelines       int
	VirtualClusters int
	RuntimeVersions int
	ViewsCreated    int
	ViewsUsed       int

	LatencyImpPct float64
	// MedianLatencyImpPct is the median per-job latency improvement,
	// restricted to jobs that built or reused a view (§4).
	MedianLatencyImpPct float64
	ProcessingImpPct    float64
	BonusImpPct         float64
	ContainersImpPct    float64
	InputImpPct         float64
	DataReadImpPct      float64
	QueueImpPct         float64
}

// ProductionResult is the full A/B outcome.
type ProductionResult struct {
	Cfg    ProductionConfig
	Days   []DayPair
	Table1 Table1
	// Metrics is the CloudViews arm's final registry export (Prometheus
	// text format, deterministic ordering); BaseMetrics the baseline arm's.
	Metrics     string
	BaseMetrics string
	// BaseTelemetry / CVTelemetry are the per-arm feedback-loop health
	// snapshots (series, critical-path breakdowns, SLO alerts).
	BaseTelemetry *telemetry.RunTelemetry
	CVTelemetry   *telemetry.RunTelemetry
}

// Verdicts returns the per-arm SLO watchdog verdicts ("OK" or a REGRESSED
// summary), baseline first.
func (r *ProductionResult) Verdicts() (base, cv string) {
	return telemetry.Verdict(r.BaseTelemetry.Alerts), telemetry.Verdict(r.CVTelemetry.Alerts)
}

// Report assembles the two arms into a cvdash report document.
func (r *ProductionResult) Report() *telemetry.Report {
	title := fmt.Sprintf("CloudViews feedback-loop health — %d pipelines, %d VCs, %d days, seed %d",
		r.Cfg.Profile.Pipelines, r.Cfg.Profile.VCs, r.Cfg.Days, r.Cfg.Profile.Seed)
	return &telemetry.Report{
		Title: title,
		Arms: []telemetry.ArmReport{
			{Name: "baseline", Telemetry: r.BaseTelemetry},
			{Name: "cloudviews", Telemetry: r.CVTelemetry},
		},
	}
}

type armResult struct {
	days   []core.DayMetrics
	jobLat map[string]float64
	// qualified marks jobs whose TEMPLATE qualified for CloudViews (some
	// instance built or reused a view) — the paper's measurement population.
	qualified map[string]bool
	runtimes  map[string]bool
	pipelines map[string]bool
	vcs       map[string]bool
	metrics   string
	tele      *telemetry.RunTelemetry
	// guardLog is the guard's decision log; empty when the guard is off.
	guardLog string
}

// RunProduction executes the same generated workload twice — baseline and
// CloudViews-enabled — and assembles Table 1 plus the Figure 6/7 series.
func RunProduction(cfg ProductionConfig) (*ProductionResult, error) {
	base, cv, err := runPair(cfg, arm{name: "baseline"}, arm{name: "cloudviews", reuse: true})
	if err != nil {
		return nil, err
	}

	res := &ProductionResult{
		Cfg:           cfg,
		Metrics:       cv.metrics,
		BaseMetrics:   base.metrics,
		BaseTelemetry: base.tele,
		CVTelemetry:   cv.tele,
	}
	for i := range base.days {
		res.Days = append(res.Days, DayPair{Date: base.days[i].Date, Base: base.days[i], CV: cv.days[i]})
	}

	t := &res.Table1
	t.Jobs = len(cv.jobLat)
	t.Pipelines = len(cv.pipelines)
	t.VirtualClusters = len(cv.vcs)
	t.RuntimeVersions = len(cv.runtimes)

	var b, c repository.Outcome
	for i := range base.days {
		t.ViewsCreated += cv.days[i].ViewsBuilt
		t.ViewsUsed += cv.days[i].ViewsReused
		b.Add(base.days[i].Outcome)
		c.Add(cv.days[i].Outcome)
	}
	t.LatencyImpPct = improvement(b.LatencySec, c.LatencySec)
	t.ProcessingImpPct = improvement(b.ProcessingSec, c.ProcessingSec)
	t.BonusImpPct = improvement(b.BonusSec, c.BonusSec)
	t.ContainersImpPct = improvement(float64(b.Containers), float64(c.Containers))
	t.InputImpPct = improvement(float64(b.InputBytes), float64(c.InputBytes))
	t.DataReadImpPct = improvement(float64(b.DataReadBytes), float64(c.DataReadBytes))
	t.QueueImpPct = improvement(float64(b.QueueLen), float64(c.QueueLen))
	t.MedianLatencyImpPct = medianImprovement(base.jobLat, cv.jobLat, cv.qualified)
	return res, nil
}

func improvement(base, with float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (base - with) / base
}

// medianImprovement pairs jobs by ID across arms and returns the median
// per-job latency improvement over the jobs that qualified for CloudViews
// (built or reused a view) — the paper's §4 measurement methodology compares
// "previous instances of the queries that qualified for CloudView
// optimization" against their post-enable instances.
func medianImprovement(base, cv map[string]float64, qualified map[string]bool) float64 {
	var imps []float64
	for id, b := range base {
		c, ok := cv[id]
		if !ok || b <= 0 || (qualified != nil && !qualified[id]) {
			continue
		}
		imps = append(imps, 100*(b-c)/b)
	}
	if len(imps) == 0 {
		return 0
	}
	sort.Float64s(imps)
	return imps[len(imps)/2]
}

// arm is one side of an A/B run: what differs between two runs of the same
// configuration.
type arm struct {
	// name labels the arm's errors and names its view store.
	name string
	// reuse onboards the VCs over the ramp and runs the nightly analysis;
	// the baseline arm does neither.
	reuse bool
	// guarded turns the guard subsystem on.
	guarded bool
	// storm adds the view-read fault storm (withStorm) to cfg.Faults.
	storm bool
}

// runPair runs arms a and b over the same configuration, concurrently, and
// reports a's error before b's. The view stores are opened first, a's then
// b's, so what StoreFactory prints keeps one order.
func runPair(cfg ProductionConfig, a, b arm) (*armResult, *armResult, error) {
	arms := [2]arm{a, b}
	var stores [2]storage.Engine
	if cfg.StoreFactory != nil {
		for i, x := range arms {
			store, err := cfg.StoreFactory(x.name)
			if err != nil {
				if closer, ok := stores[0].(io.Closer); ok {
					_ = closer.Close() // the open error is the one to report
				}
				return nil, nil, fmt.Errorf("%s arm: opening %s view store: %w", x.name, x.name, err)
			}
			stores[i] = store
		}
	}
	var (
		res  [2]*armResult
		errs [2]error
		wg   sync.WaitGroup
	)
	for i := range arms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = runArm(cfg, arms[i], stores[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("%s arm: %w", arms[i].name, err)
		}
	}
	return res[0], res[1], nil
}

// bootstrap generates profile's catalog and day-0 data and gives every VC
// tokens tokens.
func bootstrap(profile workload.ClusterProfile, tokens int) (*catalog.Catalog, *workload.Generator, []cluster.VCConfig, error) {
	cat := catalog.New()
	gen := workload.NewGenerator(cat, profile)
	if err := gen.Bootstrap(); err != nil {
		return nil, nil, nil, err
	}
	var vcs []cluster.VCConfig
	for _, vc := range gen.VCNames() {
		vcs = append(vcs, cluster.VCConfig{Name: vc, Tokens: tokens})
	}
	return cat, gen, vcs, nil
}

// runArm builds one engine for the arm over store (nil = in memory) and runs
// cfg's window of days on it. A store that is an io.Closer is closed on the
// way out, and a failed close fails the arm.
func runArm(cfg ProductionConfig, a arm, store storage.Engine) (res *armResult, err error) {
	if closer, ok := store.(io.Closer); ok {
		defer func() {
			if cerr := closer.Close(); cerr != nil && err == nil {
				res, err = nil, fmt.Errorf("closing view store: %w", cerr)
			}
		}()
	}
	cat, gen, vcCfgs, err := bootstrap(cfg.Profile, vcTokens)
	if err != nil {
		return nil, err
	}
	vcNames := gen.VCNames()
	// The storm flag flips between this arm's serial RunDay calls, so the
	// fault schedule stays deterministic.
	stormActive := false
	faults := cfg.Faults
	if a.storm && len(vcNames) > 0 {
		faults = withStorm(faults, vcNames[0], &stormActive)
	}
	eng := core.NewEngine(core.Config{
		ClusterName:   cfg.Profile.Name,
		Catalog:       cat,
		ClusterCfg:    cluster.Config{Capacity: cfg.Capacity, VCs: vcCfgs},
		Selection:     cfg.Selection,
		Faults:        faults,
		SLORules:      cfg.SLORules,
		Guard:         guard.Config{Enabled: a.guarded, BreakerMinFallbacks: stormBreakerMinFallbacks},
		StorageEngine: store,
	})

	res = &armResult{
		jobLat:    make(map[string]float64),
		qualified: make(map[string]bool),
		runtimes:  make(map[string]bool),
		pipelines: make(map[string]bool),
		vcs:       make(map[string]bool),
	}
	onboarded := 0
	for day := 0; day < cfg.Days; day++ {
		if day > 0 {
			if err := gen.AdvanceDay(day); err != nil {
				return nil, err
			}
		}
		// Opt-in onboarding: enable VC tiers gradually over the ramp.
		if a.reuse {
			target := len(vcNames)
			if cfg.RampDays > 0 && day < cfg.RampDays {
				target = (day + 1) * len(vcNames) / cfg.RampDays
			}
			for ; onboarded < target; onboarded++ {
				eng.OnboardVC(vcNames[onboarded])
			}
		}
		stormActive = inStorm(cfg, day)
		m, err := eng.RunDay(day, gen.JobsForDay(day))
		if err != nil {
			return nil, err
		}
		res.days = append(res.days, m)
		if a.reuse {
			to := fixtures.Epoch.AddDate(0, 0, day+1)
			eng.RunAnalysis(to.Add(-analysisWindow), to)
		}
	}
	qualifiedTemplates := make(map[string]bool)
	for _, j := range eng.Repo.Jobs() {
		if j.ViewsBuilt > 0 || j.ViewsReused > 0 {
			qualifiedTemplates[string(j.Template)] = true
		}
	}
	for _, j := range eng.Repo.Jobs() {
		res.jobLat[j.JobID] = j.LatencySec
		if qualifiedTemplates[string(j.Template)] {
			res.qualified[j.JobID] = true
		}
		res.runtimes[j.Runtime] = true
		res.pipelines[j.Pipeline] = true
		res.vcs[j.VC] = true
	}
	res.metrics = eng.Metrics.ExportString()
	res.tele = eng.Telemetry.Snapshot()
	if g := eng.Guard(); g != nil {
		res.guardLog = g.RenderLog()
	}
	return res, nil
}

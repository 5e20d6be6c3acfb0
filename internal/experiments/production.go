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
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/core"
	"cloudviews/internal/fault"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/storage"
	"cloudviews/internal/telemetry"
	"cloudviews/internal/workload"
)

// ProductionConfig sizes the Table 1 / Figures 6–7 experiment.
type ProductionConfig struct {
	Profile workload.ClusterProfile
	// Days is the window length (paper: two months ≈ 59 days).
	Days int
	// RampDays is the opt-in onboarding period: VCs are enabled tier by tier
	// over this many days (drives the Figure 6a ramp).
	RampDays int
	// AnalysisWindowDays is the trailing window the nightly analysis reads.
	AnalysisWindowDays int
	// Capacity / VCTokens size the cluster.
	Capacity  int
	VCTokens  int
	Selection analysis.SelectionConfig
	// Faults injects deterministic failures into BOTH arms identically
	// (same seed, same rates), so the A/B comparison stays fair under
	// chaos. The zero value disables injection.
	Faults fault.Config
	// SLORules is the telemetry watchdog's rule list, applied to BOTH arms
	// (same thresholds, so per-arm verdicts compare like for like). Nil is
	// telemetry.DefaultRules(), silent on healthy runs.
	SLORules []telemetry.Rule
	// StoreFactory, when set, supplies each arm's view-store backend (e.g.
	// a file-backed durable engine rooted in a per-arm data directory).
	// The arm name is "baseline" or "cloudviews". Engines that implement
	// io.Closer are closed when the arm finishes. Nil keeps the in-memory
	// default for both arms.
	StoreFactory func(arm string) (storage.Engine, error)
}

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
		Profile:            DeploymentProfile(),
		Days:               59, // Feb 1 – Mar 30, 2020
		RampDays:           14,
		AnalysisWindowDays: 7,
		Capacity:           400,
		VCTokens:           12,
		Selection:          analysis.SelectionConfig{ScheduleAware: true, UseBigSubs: true},
	}
}

// Scale shrinks the experiment for tests and benchmarks: factor 0.25 runs a
// quarter of the pipelines and days (minimums keep it meaningful).
func (c ProductionConfig) Scale(factor float64) ProductionConfig {
	scaled := c
	scaled.Profile.Pipelines = maxInt(10, int(float64(c.Profile.Pipelines)*factor))
	scaled.Profile.PrefixPool = maxInt(6, int(float64(c.Profile.PrefixPool)*factor))
	scaled.Profile.CookedDatasets = maxInt(4, int(float64(c.Profile.CookedDatasets)*factor))
	scaled.Profile.RawStreams = maxInt(3, int(float64(c.Profile.RawStreams)*factor))
	scaled.Profile.VCs = maxInt(2, int(float64(c.Profile.VCs)*factor))
	scaled.Days = maxInt(6, int(float64(c.Days)*factor))
	scaled.RampDays = maxInt(2, int(float64(c.RampDays)*factor))
	scaled.Capacity = maxInt(80, int(float64(c.Capacity)*factor))
	return scaled
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
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

	LatencyImpPct       float64
	MedianLatencyImpPct float64
	// QualifiedMedianImpPct is the median restricted to jobs that built or
	// reused a view (the §4 measurement methodology).
	QualifiedMedianImpPct float64
	ProcessingImpPct      float64
	BonusImpPct           float64
	ContainersImpPct      float64
	InputImpPct           float64
	DataReadImpPct        float64
	QueueImpPct           float64
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
	var baseAlerts, cvAlerts []telemetry.Alert
	if r.BaseTelemetry != nil {
		baseAlerts = r.BaseTelemetry.Alerts
	}
	if r.CVTelemetry != nil {
		cvAlerts = r.CVTelemetry.Alerts
	}
	return telemetry.Verdict(baseAlerts), telemetry.Verdict(cvAlerts)
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
	built     int
	reused    int
	metrics   string
	tele      *telemetry.RunTelemetry
}

// RunProduction executes the same generated workload twice — baseline and
// CloudViews-enabled — and assembles Table 1 plus the Figure 6/7 series.
func RunProduction(cfg ProductionConfig) (*ProductionResult, error) {
	base, err := runArm(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("baseline arm: %w", err)
	}
	cv, err := runArm(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("cloudviews arm: %w", err)
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
	t.ViewsCreated = cv.built
	t.ViewsUsed = cv.reused

	var bl, cl, bp, cp, bb, cb float64
	var bc, cc, bi, ci, bd, cd, bq, cq int64
	for i := range base.days {
		bl += base.days[i].LatencySec
		cl += cv.days[i].LatencySec
		bp += base.days[i].ProcessingSec
		cp += cv.days[i].ProcessingSec
		bb += base.days[i].BonusSec
		cb += cv.days[i].BonusSec
		bc += base.days[i].Containers
		cc += cv.days[i].Containers
		bi += base.days[i].InputBytes
		ci += cv.days[i].InputBytes
		bd += base.days[i].DataReadBytes
		cd += cv.days[i].DataReadBytes
		bq += base.days[i].QueueLen
		cq += cv.days[i].QueueLen
	}
	t.LatencyImpPct = improvement(bl, cl)
	t.ProcessingImpPct = improvement(bp, cp)
	t.BonusImpPct = improvement(bb, cb)
	t.ContainersImpPct = improvement(float64(bc), float64(cc))
	t.InputImpPct = improvement(float64(bi), float64(ci))
	t.DataReadImpPct = improvement(float64(bd), float64(cd))
	t.QueueImpPct = improvement(float64(bq), float64(cq))
	t.MedianLatencyImpPct = medianImprovement(base.jobLat, cv.jobLat, cv.qualified)
	t.QualifiedMedianImpPct = t.MedianLatencyImpPct
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

func runArm(cfg ProductionConfig, enable bool) (*armResult, error) {
	cat := catalog.New()
	gen := workload.NewGenerator(cat, cfg.Profile)
	if err := gen.Bootstrap(); err != nil {
		return nil, err
	}
	vcNames := gen.VCNames()
	var vcCfgs []cluster.VCConfig
	for _, vc := range vcNames {
		vcCfgs = append(vcCfgs, cluster.VCConfig{Name: vc, Tokens: cfg.VCTokens})
	}
	var store storage.Engine
	if cfg.StoreFactory != nil {
		name := "baseline"
		if enable {
			name = "cloudviews"
		}
		var err error
		store, err = cfg.StoreFactory(name)
		if err != nil {
			return nil, fmt.Errorf("opening %s view store: %w", name, err)
		}
		if closer, ok := store.(io.Closer); ok {
			defer closer.Close()
		}
	}
	eng := core.NewEngine(core.Config{
		ClusterName:   cfg.Profile.Name,
		Catalog:       cat,
		ClusterCfg:    cluster.Config{Capacity: cfg.Capacity, VCs: vcCfgs},
		Selection:     cfg.Selection,
		Faults:        cfg.Faults,
		SLORules:      cfg.SLORules,
		StorageEngine: store,
	})

	arm := &armResult{
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
		if enable {
			target := len(vcNames)
			if cfg.RampDays > 0 && day < cfg.RampDays {
				target = (day + 1) * len(vcNames) / cfg.RampDays
			}
			for ; onboarded < target; onboarded++ {
				eng.OnboardVC(vcNames[onboarded])
			}
		}
		jobs := gen.JobsForDay(day)
		m, err := eng.RunDay(day, jobs)
		if err != nil {
			return nil, err
		}
		arm.days = append(arm.days, m)
		arm.built += m.ViewsBuilt
		arm.reused += m.ViewsReused
		if enable {
			win := time.Duration(cfg.AnalysisWindowDays) * 24 * time.Hour
			to := fixtures.Epoch.AddDate(0, 0, day+1)
			eng.RunAnalysis(to.Add(-win), to)
		}
	}
	qualifiedTemplates := make(map[string]bool)
	for _, j := range eng.Repo.Jobs() {
		if j.ViewsBuilt > 0 || j.ViewsReused > 0 {
			qualifiedTemplates[string(j.Template)] = true
		}
	}
	for _, j := range eng.Repo.Jobs() {
		arm.jobLat[j.JobID] = j.LatencySec
		if qualifiedTemplates[string(j.Template)] {
			arm.qualified[j.JobID] = true
		}
		arm.runtimes[j.Runtime] = true
		arm.pipelines[j.Pipeline] = true
		arm.vcs[j.VC] = true
	}
	arm.metrics = eng.Metrics.ExportString()
	arm.tele = eng.Telemetry.Snapshot()
	return arm, nil
}

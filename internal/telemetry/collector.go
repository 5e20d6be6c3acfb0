package telemetry

import (
	"maps"
	"sort"
	"sync"

	"cloudviews/internal/explain"
	"cloudviews/internal/obs"
)

// Canonical derived series names the engine samples at each day boundary, on
// top of the raw obs.Registry snapshot. Watchdog rules reference these.
const (
	SeriesJobs            = "day_jobs"
	SeriesHitRate         = "day_hit_rate"
	SeriesLatencySec      = "day_latency_sec"
	SeriesProcessingSec   = "day_processing_sec"
	SeriesBonusSec        = "day_bonus_sec"
	SeriesQueueLenAvg     = "day_queue_len_avg"
	SeriesViewsBuilt      = "day_views_built"
	SeriesViewsReused     = "day_views_reused"
	SeriesFaultDelaySec   = "day_fault_delay_sec"
	SeriesFaultRecoveries = "day_fault_recoveries"
	SeriesStoreLiveViews  = "store_live_views"
	SeriesStorePending    = "store_pending_views"
	SeriesRepoJobs        = "repo_jobs"
	SeriesRepoSubexprs    = "repo_subexprs"
)

// Labeled miss-reason series, one per explain reason with any traffic that
// day: day_reuse_miss{reason="x"} counts reuse decisions that missed for
// reason x, day_reuse_forfeit_sec{reason="x"} the container-seconds those
// misses left on the table. Labeled names stay out of the text SERIES
// section (report.go filters on "{") but feed the watchdog's prefix rules
// and the HTML series table.
const (
	SeriesMissPrefix    = "day_reuse_miss{"
	SeriesForfeitPrefix = "day_reuse_forfeit_sec{"
)

// MissSeriesName returns the labeled series name for one miss reason.
func MissSeriesName(reason string) string {
	return SeriesMissPrefix + `reason="` + reason + `"}`
}

// ForfeitSeriesName returns the labeled forfeit series name for one reason.
func ForfeitSeriesName(reason string) string {
	return SeriesForfeitPrefix + `reason="` + reason + `"}`
}

// Config assembles a Collector.
type Config struct {
	// Rules is the watchdog rule list (nil = DefaultRules()).
	Rules []Rule
}

// seriesCap bounds each ring-buffer series, in days: enough to retain the
// paper's two-month window with room to spare.
const seriesCap = 128

// Collector is the feedback-loop health pipeline: per-job critical-path
// aggregation (recorded at submission), day-cadence series sampling, and
// watchdog evaluation at each simulated day boundary. All methods are safe
// for concurrent use and no-op on a nil receiver, mirroring the obs layer's
// nil-registry convention, so a disabled telemetry layer costs one branch.
type Collector struct {
	mu      sync.Mutex
	sampler *Sampler
	days    map[int]*DayAgg
	alerts  []Alert
}

// VCAgg is one aggregate of critical-path attribution and reuse decisions.
// A day holds one for the whole day and one per VC; every fold lands in both.
type VCAgg struct {
	Jobs    int
	WallSec float64
	Phase   map[string]float64
	// ReuseSavedSec is the container-seconds of recomputation the jobs'
	// matched decisions banked (explain.Decision.SavedCS).
	ReuseSavedSec float64
	FaultLossSec  float64
	// MissReasons counts reuse decisions that missed, by explain reason;
	// ForfeitSec is the container-seconds those misses forfeited (only
	// decisions with a positive at-stake estimate contribute). Nil until the
	// first miss lands.
	MissReasons map[string]int
	ForfeitSec  map[string]float64
}

// DayAgg accumulates one simulated day: the day's aggregate and its per-VC
// slices.
type DayAgg struct {
	VCAgg
	Day int
	VCs map[string]*VCAgg
}

func (a *VCAgg) addJob(bd *Breakdown) {
	a.Jobs++
	a.WallSec += bd.WallSec
	bd.ForEachPhase(func(phase string, sec float64) { a.Phase[phase] += sec })
	a.FaultLossSec += bd.FaultLossSec
}

func (a *VCAgg) addMiss(reason string, savedCS float64) {
	if a.MissReasons == nil {
		a.MissReasons = make(map[string]int)
		a.ForfeitSec = make(map[string]float64)
	}
	a.MissReasons[reason]++
	if savedCS > 0 {
		a.ForfeitSec[reason] += savedCS
	}
}

func (a *VCAgg) addPhase(phase string, sec float64) {
	a.Phase[phase] += sec
	a.WallSec += sec
}

// clone copies the aggregate and its maps (a nil map stays nil).
func (a VCAgg) clone() VCAgg {
	a.Phase = maps.Clone(a.Phase)
	a.MissReasons = maps.Clone(a.MissReasons)
	a.ForfeitSec = maps.Clone(a.ForfeitSec)
	return a
}

// NewCollector builds an empty collector.
func NewCollector(cfg Config) *Collector {
	if cfg.Rules == nil {
		cfg.Rules = DefaultRules()
	}
	return &Collector{
		sampler: NewSampler(seriesCap, cfg.Rules),
		days:    make(map[int]*DayAgg),
	}
}

// aggsLocked returns the two aggregates one observation folds into: the
// day's and the VC's slice of it. Caller holds c.mu.
func (c *Collector) aggsLocked(day int, vc string) [2]*VCAgg {
	d, ok := c.days[day]
	if !ok {
		d = &DayAgg{VCAgg: VCAgg{Phase: make(map[string]float64)}, Day: day, VCs: make(map[string]*VCAgg)}
		c.days[day] = d
	}
	v, ok := d.VCs[vc]
	if !ok {
		v = &VCAgg{Phase: make(map[string]float64)}
		d.VCs[vc] = v
	}
	return [2]*VCAgg{&d.VCAgg, v}
}

// Observe folds one finished job's record into the day/VC aggregates under
// one lock: the critical-path attribution of its trace and the rollup of its
// reuse decisions. Called from the data plane on every submission, so it
// must stay cheap and race-clean. A nil record (observability off) is a
// no-op.
//
// Matched decisions add their banked container-seconds to ReuseSavedSec,
// summed per job first and then added to each aggregate; misses count once
// each, and those with a positive at-stake estimate also add to the
// forfeited container-seconds ("reuse left on the table"). A retried job's
// recorder holds only its final attempt, so only reuse that attempt banked
// is credited.
func (c *Collector) Observe(day int, vc string, job *explain.Job) {
	if job != nil {
		c.observe(day, vc, job.Trace(), job.Recorder())
	}
}

// ObserveJob folds one job trace's critical-path attribution, as Observe
// does. It is kept for benchmark/probe.go, which builds the trace and the
// recorder apart (ROADMAP item 1(b)).
func (c *Collector) ObserveJob(day int, vc string, tr *obs.Trace) {
	if tr != nil {
		c.observe(day, vc, tr, nil)
	}
}

// ObserveDecisions folds one job's reuse decisions, as Observe does. It is
// kept for benchmark/probe.go (ROADMAP item 1(b)).
func (c *Collector) ObserveDecisions(day int, vc string, rec *explain.Recorder) {
	if rec.Len() > 0 {
		c.observe(day, vc, nil, rec)
	}
}

// observe folds a trace and a recorder, either of which may be nil.
func (c *Collector) observe(day int, vc string, tr *obs.Trace, rec *explain.Recorder) {
	if c == nil {
		return
	}
	bd := Analyze(tr)
	c.mu.Lock()
	defer c.mu.Unlock()
	aggs := c.aggsLocked(day, vc)
	if tr != nil {
		for _, a := range aggs {
			a.addJob(&bd)
		}
	}
	var saved float64
	rec.ForEach(func(dec explain.Decision) {
		if !dec.Reason.IsMiss() {
			saved += dec.SavedCS
			return
		}
		for _, a := range aggs {
			a.addMiss(string(dec.Reason), dec.SavedCS)
		}
	})
	for _, a := range aggs {
		a.ReuseSavedSec += saved
	}
}

// AddQueueWait charges cluster-schedule queue time onto a day's breakdown.
// The cluster queue span is overlaid on the trace AFTER the data plane has
// observed the job, so the scheduler reports it here instead.
func (c *Collector) AddQueueWait(day int, vc string, sec float64) {
	if c == nil || sec == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range c.aggsLocked(day, vc) {
		a.addPhase("queue", sec)
	}
}

// AddFaultLoss charges cluster-side fault recovery (stage retries, bonus
// preemptions) onto a day's time-lost accounting.
func (c *Collector) AddFaultLoss(day int, vc string, sec float64) {
	if c == nil || sec == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range c.aggsLocked(day, vc) {
		a.FaultLossSec += sec
	}
}

// EndOfDay adds the day's labeled miss-reason points to the sample (one
// day_reuse_miss{reason="x"} and day_reuse_forfeit_sec{reason="x"} per reason
// with traffic that day; absent reasons produce no series), samples one point
// per metric into the series, evaluates the watchdog, records its alerts, and
// returns the day's alerts.
func (c *Collector) EndOfDay(day int, sample map[string]float64) []Alert {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.days[day]; ok {
		for reason, n := range d.MissReasons {
			sample[MissSeriesName(reason)] = float64(n)
		}
		for reason, sec := range d.ForfeitSec {
			sample[ForfeitSeriesName(reason)] = sec
		}
	}
	alerts := c.sampler.Sample(day, sample)
	c.alerts = append(c.alerts, alerts...)
	return alerts
}

// Alerts returns every alert recorded so far, in firing order.
func (c *Collector) Alerts() []Alert {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Alert(nil), c.alerts...)
}

// ---------------------------------------------------------------------------
// Snapshot: the immutable view report renderers consume.

// DaySnapshot is one day's aggregates with deterministic ordering.
type DaySnapshot struct {
	VCAgg
	Day int
	// VCNames is sorted; VCs is keyed by those names.
	VCNames []string
	VCs     map[string]VCAgg
}

// RunTelemetry is a complete, immutable copy of a collector's state: sorted
// series, ordered days, and the alert log.
type RunTelemetry struct {
	Series []SeriesSnapshot // sorted by name
	Days   []DaySnapshot    // sorted by day
	Alerts []Alert          // firing order
}

// SeriesByName returns the named series snapshot, or nil.
func (rt *RunTelemetry) SeriesByName(name string) *SeriesSnapshot {
	if rt == nil {
		return nil
	}
	for i := range rt.Series {
		if rt.Series[i].Name == name {
			return &rt.Series[i]
		}
	}
	return nil
}

// Snapshot copies the collector state for rendering. Nil collector → nil.
func (c *Collector) Snapshot() *RunTelemetry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rt := &RunTelemetry{Series: c.sampler.Snapshot()}
	days := make([]int, 0, len(c.days))
	for day := range c.days {
		days = append(days, day)
	}
	sort.Ints(days)
	for _, day := range days {
		d := c.days[day]
		ds := DaySnapshot{VCAgg: d.clone(), Day: day, VCs: make(map[string]VCAgg, len(d.VCs))}
		for vc, agg := range d.VCs {
			ds.VCNames = append(ds.VCNames, vc)
			ds.VCs[vc] = agg.clone()
		}
		sort.Strings(ds.VCNames)
		rt.Days = append(rt.Days, ds)
	}
	rt.Alerts = append([]Alert(nil), c.alerts...)
	return rt
}

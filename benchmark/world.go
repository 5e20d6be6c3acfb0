package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cloudviews"
	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/workload"
)

const (
	clusterName = "bench"
	// templateSeed fixes the population of job templates. Per-job cost differs
	// by ±16% between template populations (allocations 1328–1806 per job over
	// ten profile seeds), which would drown every regression bound, so -seed
	// drives the data, the submission order and the request mix instead.
	templateSeed = 1
	// analysisWindow is the trailing window every Analyze call looks at.
	analysisWindow = 7 * 24 * time.Hour
	// submitStep spaces the simulated submit times of measured jobs so that
	// the longest run stays well inside the 7-day view TTL. Over HTTP the step
	// is one second, the resolution of the protocol's submit_unix field.
	submitStep = 100 * time.Millisecond
)

// size holds the knobs that differ between a full run and the smoke run the
// tests use.
type size struct {
	rows      int // RowsPerRawDay
	pipelines int
	// datasets scales the dataset universe: raw streams, and cooked datasets
	// at one and a half times that (0 = the profile default of 12 and 18).
	datasets  int
	primeDays int
}

// worldCfg says which system a workload runs against.
type worldCfg struct {
	seed    uint64
	onboard bool // CloudViews enabled for every VC
	obsOff  bool // DisableObservability (the obs.on_off_ratio arm)
	size    size
}

// world is one prepared system with the generators that feed it.
type world struct {
	cfg  worldCfg
	sys  *cloudviews.System
	data *workload.Generator // publishes datasets into sys, seeded by -seed
	tmpl *workload.Generator // produces job scripts, seeded by templateSeed
	// day is the last simulated day that has run.
	day int
}

func profileFor(sz size, seed uint64) workload.ClusterProfile {
	p := workload.DefaultProfile(clusterName)
	p.RowsPerRawDay = sz.rows
	p.Pipelines = sz.pipelines
	if sz.datasets > 0 {
		p.RawStreams, p.CookedDatasets = sz.datasets, sz.datasets*3/2
	}
	p.Seed = seed
	return p
}

// newWorld bootstraps a system and runs the priming day cycles.
func newWorld(cfg worldCfg) (*world, error) {
	sys, err := cloudviews.NewSystem(cloudviews.Config{
		ClusterName:          clusterName,
		DisableObservability: cfg.obsOff,
	})
	if err != nil {
		return nil, err
	}
	w := &world{cfg: cfg, sys: sys}
	// The template generator only needs a catalog to name datasets against;
	// both generators share the profile name, so its scripts resolve in sys.
	w.tmpl = workload.NewGenerator(catalog.New(), profileFor(cfg.size, templateSeed))
	if err := w.tmpl.Bootstrap(); err != nil {
		return nil, err
	}
	w.data = workload.NewGenerator(sys.Engine().Catalog, profileFor(cfg.size, cfg.seed))
	if err := w.data.Bootstrap(); err != nil {
		return nil, err
	}
	if cfg.onboard {
		for _, vc := range w.tmpl.VCNames() {
			sys.OnboardVC(vc)
		}
	}
	for d := 0; d < cfg.size.primeDays; d++ {
		if _, err := w.dayCycle(nil); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// dayCycle runs the next simulated day: bulk updates, the day's jobs through
// RunDay, and the analysis pass. It returns the number of jobs run. timer,
// when set, receives the wall time of each of the three steps.
func (w *world) dayCycle(timer func(step string, start, end time.Time)) (int, error) {
	day := w.day + 1
	t0 := time.Now()
	if err := w.data.AdvanceDay(day); err != nil {
		return 0, err
	}
	t1 := time.Now()
	jobs := toJobs(w.tmpl.JobsForDay(day))
	if _, err := w.sys.RunDay(day, jobs); err != nil {
		return 0, err
	}
	t2 := time.Now()
	// RunDay moves the engine's clock to the next midnight; Analyze reads the
	// System's own clock, so bring it along.
	if d := dayStart(day + 1).Sub(w.sys.Clock()); d > 0 {
		w.sys.AdvanceClock(d)
	}
	w.sys.Analyze(analysisWindow)
	t3 := time.Now()
	if timer != nil {
		timer("catalog.publish", t0, t1)
		timer("core.runday", t1, t2)
		timer("analysis.analyze", t2, t3)
	}
	w.day = day
	return len(jobs), nil
}

func dayStart(day int) time.Time { return fixtures.Epoch.AddDate(0, 0, day) }

func toJob(in workload.JobInput) cloudviews.Job {
	return cloudviews.Job{
		ID: in.ID, VC: in.VC, Pipeline: in.Pipeline, User: in.User,
		Runtime: in.Runtime, Script: in.Script, Params: in.Params, Submit: in.Submit,
	}
}

func toJobs(ins []workload.JobInput) []cloudviews.Job {
	jobs := make([]cloudviews.Job, len(ins))
	for i, in := range ins {
		jobs[i] = toJob(in)
	}
	return jobs
}

func isAdhoc(j cloudviews.Job) bool { return strings.HasPrefix(j.Pipeline, "adhoc-user-") }

// stream is the traffic of the three job workloads: the recurring jobs of
// day D in a seeded order, and a pool of never-seen ad-hoc jobs.
type stream struct {
	recurring []cloudviews.Job
	adhoc     []cloudviews.Job
	base      time.Time     // submit time of op 0
	step      time.Duration // simulated time between consecutive ops
}

// job returns op i's recurring submission: the stream cycles over day D's
// jobs with a fresh ID and a submit time that grows with i.
func (s *stream) job(i int) cloudviews.Job {
	j := s.recurring[i%len(s.recurring)]
	j.ID = opID('r', i)
	j.Submit = s.base.Add(time.Duration(i) * s.step)
	return j
}

// fresh returns op i's ad-hoc submission, a script the system has not seen.
func (s *stream) fresh(i int) cloudviews.Job {
	j := s.adhoc[i%len(s.adhoc)]
	j.ID = opID('a', i)
	j.Submit = s.base.Add(time.Duration(i) * s.step)
	return j
}

func opID(kind byte, i int) string {
	var buf [24]byte
	b := append(buf[:0], kind, '-')
	return string(strconv.AppendInt(b, int64(i), 10))
}

// cookDay publishes the next day's bulk updates and runs its cooking jobs, in
// process, so the day's shared datasets exist before anything reads them.
func (w *world) cookDay() error {
	day := w.day + 1
	if err := w.data.AdvanceDay(day); err != nil {
		return err
	}
	for _, in := range w.tmpl.JobsForDay(day) {
		if !in.Cooking {
			continue
		}
		if _, err := w.sys.SubmitScript(toJob(in)); err != nil {
			return fmt.Errorf("cooking job %s: %w", in.ID, err)
		}
	}
	w.day = day
	return nil
}

// newStream derives the job workloads' traffic from a template generator:
// day's non-cooking jobs, and the ad-hoc jobs of the adhocDays days after it
// re-stamped to day, so their literals are new but the data window is the one
// the system holds.
func newStream(tmpl *workload.Generator, day, adhocDays int, step time.Duration) *stream {
	s := &stream{base: dayStart(day + 1).Add(time.Hour), step: step}
	for _, in := range tmpl.JobsForDay(day) {
		if !in.Cooking {
			s.recurring = append(s.recurring, toJob(in))
		}
	}
	at := data.Time(dayStart(day))
	for k := 1; k <= adhocDays; k++ {
		for _, in := range tmpl.JobsForDay(day + k) {
			if j := toJob(in); isAdhoc(j) {
				j.Params = map[string]cloudviews.Value{"cutoff": at, "runStart": at}
				s.adhoc = append(s.adhoc, j)
			}
		}
	}
	return s
}

// warmUp takes the system from "day D cooked" to the state the job workloads
// measure from: one pass of day D's jobs at their own submit times (which
// builds the selected views when the VCs are onboarded), one more pass
// submitted from the next midnight on — a job's submit time moves the engine's
// clock, so by then every view is sealed — which compiles and caches the plans
// over the new views, and the stream put in its seeded order. submit performs
// one job, in process or over HTTP.
func (s *stream) warmUp(seed uint64, submit func(cloudviews.Job) error) error {
	sealed := s.base.Add(-time.Hour)
	for pass := 0; pass < 2; pass++ {
		for i, j := range s.recurring {
			j.ID = opID("bw"[pass], i)
			if pass == 1 {
				j.Submit = sealed.Add(time.Duration(i) * time.Second)
			}
			if err := submit(j); err != nil {
				return fmt.Errorf("warm-up job %s: %w", j.ID, err)
			}
		}
	}
	rng := data.NewRand(seed ^ 0x5eed0bad)
	data.Shuffle(rng, s.recurring)
	data.Shuffle(rng, s.adhoc)
	return nil
}

// reference is the system answers are checked against: CloudViews off for
// every VC and no plan cache, fed the same data.
type reference struct {
	sys  *cloudviews.System
	data *workload.Generator
	tmpl *workload.Generator
}

func newReference(cfg worldCfg) (*reference, error) {
	sys, err := cloudviews.NewSystem(cloudviews.Config{ClusterName: clusterName, PlanCacheSize: -1})
	if err != nil {
		return nil, err
	}
	r := &reference{sys: sys}
	r.tmpl = workload.NewGenerator(catalog.New(), profileFor(cfg.size, templateSeed))
	if err := r.tmpl.Bootstrap(); err != nil {
		return nil, err
	}
	r.data = workload.NewGenerator(sys.Engine().Catalog, profileFor(cfg.size, cfg.seed))
	return r, r.data.Bootstrap()
}

// cook publishes day's raw data and runs only that day's cooking jobs, which
// is all the live system's cooked datasets of that day depend on.
func (r *reference) cook(day int) error {
	if err := r.data.AdvanceDay(day); err != nil {
		return err
	}
	for _, in := range r.tmpl.JobsForDay(day) {
		if !in.Cooking {
			continue
		}
		if _, err := r.sys.SubmitScript(toJob(in)); err != nil {
			return fmt.Errorf("reference cooking job %s: %w", in.ID, err)
		}
	}
	return nil
}

// answer runs j on the reference system and renders its output (see
// tableAnswer for limit).
func (r *reference) answer(j cloudviews.Job, limit int) (answer, error) {
	res, err := r.sys.SubmitScript(j)
	if err != nil {
		return answer{}, err
	}
	return tableAnswer(res.Output, limit), nil
}

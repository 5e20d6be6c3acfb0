package main

import (
	"fmt"
	"strings"
	"time"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
)

// runDaily runs daily_cycle: one op is one simulated day — bulk updates,
// RunDay over the day's jobs, Analyze — from one client, because RunDay is a
// serial control-plane call.
func runDaily(c *runCfg, d workloadDef) (*outcome, error) {
	cfg := worldCfg{seed: c.seed, onboard: d.onboard, size: c.size(d)}
	w, setupTimes, err := timeSetups(c.setups(), func() (*world, error) { return newWorld(cfg) }, func(*world) {})
	if err != nil {
		return nil, err
	}
	ref, err := newReference(cfg)
	if err != nil {
		return nil, err
	}
	maxDays := 0
	if c.smoke {
		maxDays = 3
	}
	out := &outcome{metrics: make(map[string]metric), notes: make(map[string]any)}

	share := 1.0
	if c.trace {
		share = 0.4
	}
	firstDay := w.day + 1
	before := readSystem(w.sys, true)
	lr := runClosed(1, c.duration(share), maxDays, func(_, _ int) (int, time.Duration, error) {
		n, err := w.dayCycle(nil)
		return n, 0, err
	})
	after := readSystem(w.sys, true)
	if lr.jobs() == 0 {
		return nil, fmt.Errorf("%s: no day completed", d.name)
	}
	// An untraced run checks a spread of days including the last; a traced
	// run, below, checks every day of its pass.
	wrong, err := checkDays(w, ref, sampleDays(firstDay, w.day, 6))
	if err != nil {
		return nil, err
	}
	out.attempted = len(lr.samples) + lr.failed
	out.failed = lr.failed + wrong
	if !c.trace {
		out.metrics, out.notes = finish(d, 1, lr, before.Proc, after.Proc, setupTimes)
		return out, nil
	}

	loopLayer(out.metrics, d, lr)
	procLayer(out.metrics, lr, before.Proc, after.Proc)
	counterLayer(out.metrics, before, after, lr.jobs())
	untracedRate := lr.throughput()
	jobsPerDay := float64(lr.jobs()) / float64(len(lr.samples))

	tw, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	tref, err := newReference(cfg)
	if err != nil {
		return nil, err
	}
	tp, err := tracedDays(tw, tref, c.duration(0.6), maxDays)
	if err != nil {
		return nil, err
	}
	out.attempted += tp.attempted
	out.failed += tp.failed
	out.spans = tp.spans
	compiles := 1 - out.metrics["core.plancache_hit_ratio"].Value
	out.counters = map[string]float64{
		// Every bulk update invalidates the plan cache, and a script's runs
		// within a day differ in their parameters, so every job parses and
		// binds. Job-level layers run once per job, jobs_per_day times per op.
		"runs.sqlparser.parse":   jobsPerDay,
		"runs.plan.bind":         jobsPerDay,
		"runs.optimizer.compile": jobsPerDay * compiles,
		"runs.signature.sign":    jobsPerDay * compiles,
		"runs.exec.run":          jobsPerDay,
		"runs.repository.add":    jobsPerDay,
		"runs.telemetry.observe": jobsPerDay,
		"runs.insights.fetch":    jobsPerDay * out.metrics["insights.fetches_per_job"].Value,
		"runs.storage.write":     jobsPerDay * out.metrics["optimizer.proposed_per_job"].Value,
		"jobs_per_op":            jobsPerDay,
	}
	tp.layerMetrics(out.metrics, out.counters)
	out.metrics["trace.overhead_ratio"] = metric{Value: tp.rate / untracedRate, Unit: "ratio"}
	naMetrics(out.metrics, "obs.on_off_ratio")
	naServer(out.metrics)
	return out, nil
}

// dayProbeEvery is how many of a day's jobs the traced pass skips between
// probed ones, which keeps probing from taking longer than the day itself.
const dayProbeEvery = 4

// tracedDays runs the traced pass of daily_cycle. The root span wraps the
// whole day cycle; its three steps are real child spans; the layer probes run
// after the day on a sample of its jobs, as children of the RunDay span.
func tracedDays(w *world, ref *reference, dur time.Duration, maxDays int) (*tracedPass, error) {
	t0 := time.Now()
	p := newProber(w.sys.Engine(), newSpanLog(t0))
	p.parent = "core.runday"
	tp := &tracedPass{probers: []*prober{p}}
	firstDay := w.day + 1
	lr := runClosed(1, dur, maxDays, func(_, _ int) (int, time.Duration, error) {
		day := w.day + 1
		trace := fmt.Sprintf("day-%03d", day)
		start := time.Since(t0)
		n, err := w.dayCycle(func(step string, s, e time.Time) { p.log.add(trace, step, rootSpan, s.Sub(t0), e.Sub(t0)) })
		p.log.add(trace, rootSpan, "", start, time.Since(t0))
		if err != nil {
			return 0, 0, err
		}
		p.newDay()
		for i, j := range toJobs(w.tmpl.JobsForDay(day)) {
			if i%dayProbeEvery != 0 {
				continue
			}
			if err := p.job(trace, j); err != nil {
				return 0, 0, err
			}
		}
		return n, 0, nil
	})
	var days []int
	for d := firstDay; d <= w.day; d++ {
		days = append(days, d)
	}
	wrong, err := checkDays(w, ref, days)
	if err != nil {
		return nil, err
	}
	tp.attempted = len(lr.samples) + lr.failed
	tp.failed = lr.failed + wrong
	tp.rate = lr.throughput()
	tp.spans = p.log.spans
	tp.afterLoop(w.sys)
	return tp, nil
}

// sampleDays picks up to n days evenly from [first, last], always including
// last.
func sampleDays(first, last, n int) []int {
	total := last - first + 1
	if total <= n {
		n = total
	}
	days := make([]int, 0, n)
	for k := 1; k <= n; k++ {
		d := first + k*total/n - 1
		if len(days) == 0 || days[len(days)-1] != d {
			days = append(days, d)
		}
	}
	return days
}

// checkDays compares, for each of the ascending days, every cooked dataset
// the live system published that day with what the reference system produces
// from that day's raw data and cooking jobs alone. It returns how many
// datasets differ.
func checkDays(w *world, ref *reference, days []int) (wrong int, err error) {
	live := w.sys.Engine().Catalog
	for _, day := range days {
		if err := ref.cook(day); err != nil {
			return 0, err
		}
		want, err := cookedOn(ref.sys.Engine().Catalog, day)
		if err != nil {
			return 0, err
		}
		got, err := cookedOn(live, day)
		if err != nil {
			return 0, err
		}
		if len(want) == 0 {
			return 0, fmt.Errorf("day %d: reference published no cooked dataset", day)
		}
		for name, wt := range want {
			gt, ok := got[name]
			if !ok {
				wrong++
				mismatch("day %d dataset %s: not published", day, name)
			} else if err := tableAnswer(gt, -1).diff(tableAnswer(wt, -1)); err != nil {
				wrong++
				mismatch("day %d dataset %s: %v", day, name, err)
			}
		}
	}
	return wrong, nil
}

// cookedOn returns the version of every cooked dataset published on day.
func cookedOn(cat *catalog.Catalog, day int) (map[string]*data.Table, error) {
	from, to := dayStart(day), dayStart(day+1)
	out := make(map[string]*data.Table)
	for _, name := range cat.Names() {
		if !strings.Contains(name, "_Cooked") {
			continue
		}
		versions, err := cat.Window(name, cat.VersionCount(name))
		if err != nil {
			return nil, err
		}
		for _, v := range versions {
			if !v.CreatedAt.Before(from) && v.CreatedAt.Before(to) {
				out[name] = v.Table
				break
			}
		}
	}
	return out, nil
}

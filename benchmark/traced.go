package main

import (
	"runtime"
	"time"

	"cloudviews"
	"cloudviews/internal/analysis"
	"cloudviews/internal/core"
)

// perLayer lists the metrics of a traced run, in print order; layers are the
// repository's module names. BENCHMARK.json carries the same names.
var perLayer = []metricDef{
	{"loop.jobs_per_s", "1/s"},
	{"loop.lat_p50_us", "us"},
	{"loop.lat_tail_us", "us"},
	{"proc.cpu_us_per_job", "us"},
	{"sqlparser.parse_us", "us"},
	{"plan.bind_us", "us"},
	{"signature.sign_us", "us"},
	{"signature.subexprs_per_job", "count"},
	{"insights.fetch_us", "us"},
	{"insights.fetches_per_job", "count"},
	{"insights.lock_contention_per_kjob", "count"},
	{"optimizer.compile_us", "us"},
	{"optimizer.matched_per_job", "count"},
	{"optimizer.proposed_per_job", "count"},
	{"optimizer.match_ratio", "ratio"},
	{"exec.run_us", "us"},
	{"exec.allocs_per_run", "count"},
	{"exec.cache_hits_per_job", "count"},
	{"exec.evictions_per_kjob", "count"},
	{"storage.fetch_us", "us"},
	{"storage.write_us", "us"},
	{"storage.views_live", "count"},
	{"storage.view_mb", "MB"},
	{"storage.expired_per_kjob", "count"},
	{"repository.add_us", "us"},
	{"repository.group_us", "us"},
	{"repository.records", "count"},
	{"analysis.select_us", "us"},
	{"analysis.tags", "count"},
	{"catalog.publish_us", "us"},
	{"telemetry.observe_us", "us"},
	{"obs.export_us", "us"},
	{"obs.series", "count"},
	{"obs.on_off_ratio", "ratio"},
	{"core.plancache_hit_ratio", "ratio"},
	{"core.other_us", "us"},
	{"core.runday_us_per_job", "us"},
	{"server.wire_us", "us"},
	{"server.handler_self_us", "us"},
	{"server.async_p50_us", "us"},
	{"server.shed_ratio", "ratio"},
	{"server.open_p50_us", "us"},
	{"server.open_p99_us", "us"},
	{"server.open_late_p99_us", "us"},
	{"proc.mutex_wait_us_per_job", "us"},
	{"proc.gc_cpu_share", "ratio"},
	{"proc.gc_cycles", "count"},
	{"proc.sched_lat_p99_us", "us"},
	{"proc.goroutines_end", "count"},
	{"proc.heap_end_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.probes_skipped", "count"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

func naServer(m map[string]metric) {
	for _, d := range perLayer {
		if layerOf(d.name) == "server" {
			m[d.name] = metric{Unit: d.unit, NA: true}
		}
	}
}

// tracedPass is what a traced loop and its single-threaded follow-up produced.
type tracedPass struct {
	spans     []span
	attempted int
	failed    int
	rate      float64 // jobs per second of the traced loop, probes included
	probers   []*prober
	// extra holds the metrics measured after the loop, single-threaded.
	extra map[string]metric
}

// tracedJobs runs the traced pass of an in-process job workload: every op is
// a root span around SubmitScript followed by the layer probes, and every
// answer is checked.
func tracedJobs(c *runCfg, w *warmWorld, ref *reference, nc int, dur time.Duration) (*tracedPass, error) {
	t0 := time.Now()
	tp := &tracedPass{}
	for i := 0; i < nc; i++ {
		tp.probers = append(tp.probers, newProber(w.sys.Engine(), newSpanLog(t0)))
	}
	chk := newChecker(ref, nc)
	lr := runClosed(nc, dur, c.maxOps(), func(client, i int) (int, time.Duration, error) {
		p := tp.probers[client]
		j := w.stream.job(i)
		start := time.Since(t0)
		res, err := w.sys.SubmitScript(j)
		p.log.add(j.ID, rootSpan, "", start, time.Since(t0))
		if err != nil {
			return 0, 0, err
		}
		chk.add(client, pending{job: j, table: res.Output, limit: -1})
		return 1, 0, p.job(j.ID, j)
	})
	tp.collect(lr, chk)
	tp.afterLoop(w.sys)
	return tp, nil
}

// collect folds the loop's result, the probers' spans and the answer check
// into the pass.
func (tp *tracedPass) collect(lr loopResult, chk *checker) {
	tp.attempted = len(lr.samples) + lr.failed
	tp.failed = lr.failed + chk.settle()
	tp.rate = lr.throughput()
	for _, p := range tp.probers {
		tp.spans = append(tp.spans, p.log.spans...)
	}
}

// afterLoop takes the measurements that need a quiet process: the analysis
// queries over the live repository, the metrics export, and the allocation
// count of exec.Run.
func (tp *tracedPass) afterLoop(sys *cloudviews.System) {
	tp.extra = make(map[string]metric)
	eng := sys.Engine()
	to := sys.Clock().Add(24 * time.Hour)
	from := to.Add(-analysisWindow - 24*time.Hour)
	tp.extra["repository.group_us"] = timeUs(3, func() { eng.Repo.GroupByRecurring(from, to) })
	tp.extra["analysis.select_us"] = timeUs(3, func() { analysis.SelectViews(eng.Repo, from, to, eng.Selection) })
	tp.extra["obs.export_us"] = timeUs(3, func() { sys.Metrics().ExportString() })
	tp.extra["exec.allocs_per_run"] = tp.execAllocs(eng)
}

// timeUs returns the mean wall time of n calls, in microseconds.
func timeUs(n int, fn func()) metric {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return metric{Value: float64(time.Since(t0).Microseconds()) / float64(n), Unit: "us"}
}

// execAllocs re-runs the last plans each prober compiled, on one goroutine,
// and counts heap allocations per exec.Run. The process-wide counter is only
// attributable when nothing else runs, which is why this is not done in the
// loop.
func (tp *tracedPass) execAllocs(eng *core.Engine) metric {
	runs := 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, p := range tp.probers {
		for _, cp := range p.recent {
			if _, err := p.run("", cp.plan, cp.sigMap, cp.submit); err == nil {
				runs++
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	if runs == 0 {
		return metric{Unit: "count", NA: true}
	}
	return metric{Value: float64(ms1.Mallocs-ms0.Mallocs) / float64(runs), Unit: "count"}
}

// layerMetrics turns the spans and probe counts into per-layer metrics.
// counters weight each layer by how often the real path runs it.
func (tp *tracedPass) layerMetrics(m map[string]metric, counters map[string]float64) {
	// core.other_us is the time of the call that hosts the job-level probes
	// which none of them accounts for, per job: the op itself, or RunDay
	// spread over the day's jobs when an op is a whole day.
	host, jobsPerOp := rootSpan, 1.0
	if n := counters["jobs_per_op"]; n > 0 {
		host, jobsPerOp = "core.runday", n
	}
	for _, c := range contributions(tp.spans, counters) {
		if c.name == host {
			m["core.other_us"] = metric{Value: c.selfUs / jobsPerOp, Unit: "us"}
			if host != rootSpan {
				m["core.runday_us_per_job"] = metric{Value: c.meanUs / jobsPerOp, Unit: "us"}
			}
		}
		if name := c.name + "_us"; unitOf(name) != "" {
			m[name] = metric{Value: c.meanUs, Unit: "us"}
		}
	}
	var jobs, subexprs, candidates, matched, skipped int
	for _, p := range tp.probers {
		jobs += p.jobs
		subexprs += p.subexprs
		candidates += p.candidates
		matched += p.matched
		skipped += p.skipped
	}
	if jobs > 0 {
		m["signature.subexprs_per_job"] = metric{Value: float64(subexprs) / float64(jobs), Unit: "count"}
	}
	ratio := 0.0
	if candidates > 0 {
		ratio = float64(matched) / float64(candidates)
	}
	m["optimizer.match_ratio"] = metric{Value: ratio, Unit: "ratio"}
	m["trace.probes_skipped"] = metric{Value: float64(skipped), Unit: "count"}
	for name, v := range tp.extra {
		m[name] = v
	}
	// A layer the pass never reached (no view matched, so nothing fetched)
	// does not apply to this workload.
	for _, name := range []string{"storage.fetch_us", "storage.write_us", "exec.run_us"} {
		if _, ok := m[name]; !ok {
			m[name] = metric{Unit: "us", NA: true}
		}
	}
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"cloudviews"
)

// reading is one cumulative reading of the process and system under test.
// The server child returns it as JSON from /bench/stats.
type reading struct {
	Proc procStats
	// Counters is System.Metrics().Snapshot() plus the bench.* facts below,
	// which the system exports through methods instead of its registry.
	Counters map[string]float64
}

func readSystem(sys *cloudviews.System, gc bool) reading {
	r := reading{Proc: readProc(gc), Counters: sys.Metrics().Snapshot()}
	if r.Counters == nil {
		r.Counters = make(map[string]float64)
	}
	r.Counters["bench.series"] = float64(len(r.Counters))
	eng := sys.Engine()
	hits, misses := eng.PlanCacheStats()
	r.Counters["bench.plancache_hits"] = float64(hits)
	r.Counters["bench.plancache_misses"] = float64(misses)
	r.Counters["bench.repo_records"] = float64(eng.Repo.Len())
	r.Counters["bench.tags"] = float64(eng.Insights.TagCount())
	r.Counters["bench.locks"] = float64(eng.Insights.LockCount())
	r.Counters["bench.views_live"] = float64(sys.ViewCount())
	var bytes int64
	for _, v := range eng.Store.Views() {
		bytes += v.Bytes
	}
	r.Counters["bench.view_bytes"] = float64(bytes)
	return r
}

// counterLayer derives the per-layer metrics that are ratios of the system's
// own counters over the untraced phase.
func counterLayer(m map[string]metric, before, after reading, jobs int) {
	n := float64(jobs)
	delta := func(name string) float64 { return after.Counters[name] - before.Counters[name] }
	m["insights.fetches_per_job"] = metric{Value: delta("cloudviews_insights_fetches_total") / n, Unit: "count"}
	m["insights.lock_contention_per_kjob"] = metric{Value: delta("cloudviews_insights_lock_contention_total") / n * 1e3, Unit: "count"}
	m["optimizer.matched_per_job"] = metric{Value: delta("cloudviews_views_reused_total") / n, Unit: "count"}
	m["optimizer.proposed_per_job"] = metric{Value: delta("cloudviews_views_built_total") / n, Unit: "count"}
	m["exec.cache_hits_per_job"] = metric{Value: delta("cloudviews_exec_cache_hits_total") / n, Unit: "count"}
	m["exec.evictions_per_kjob"] = metric{Value: delta("cloudviews_result_cache_evictions_total") / n * 1e3, Unit: "count"}
	m["storage.expired_per_kjob"] = metric{Value: delta("cloudviews_views_expired_total") / n * 1e3, Unit: "count"}
	m["storage.views_live"] = metric{Value: after.Counters["bench.views_live"], Unit: "count"}
	m["storage.view_mb"] = metric{Value: after.Counters["bench.view_bytes"] / (1 << 20), Unit: "MB"}
	m["repository.records"] = metric{Value: after.Counters["bench.repo_records"], Unit: "count"}
	m["analysis.tags"] = metric{Value: after.Counters["bench.tags"], Unit: "count"}
	m["obs.series"] = metric{Value: after.Counters["bench.series"], Unit: "count"}
	hits, misses := delta("bench.plancache_hits"), delta("bench.plancache_misses")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	m["core.plancache_hit_ratio"] = metric{Value: ratio, Unit: "ratio"}
}

// warmWorld is a system ready for the job workloads' measured phase.
type warmWorld struct {
	*world
	stream *stream
}

// setupWarm builds reuse_warm's world (reuse_off's when cfg.onboard is unset)
// in this process.
func setupWarm(cfg worldCfg) (*warmWorld, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.cookDay(); err != nil {
		return nil, err
	}
	st := newStream(w.tmpl, w.day, 0, submitStep)
	submit := func(j cloudviews.Job) error { _, err := w.sys.SubmitScript(j); return err }
	if err := st.warmUp(cfg.seed, submit); err != nil {
		return nil, err
	}
	return &warmWorld{world: w, stream: st}, nil
}

// timeSetups runs setup the given number of times and returns the last world
// with every set-up time. Earlier worlds are dropped and collected so each
// set-up starts from the same heap.
func timeSetups[T any](n int, setup func() (T, error), discard func(T)) (T, []float64, error) {
	var last T
	var times []float64
	for k := 0; k < n; k++ {
		if k > 0 {
			discard(last)
			runtime.GC()
		}
		t0 := time.Now()
		w, err := setup()
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = w
	}
	return last, times, nil
}

// runJobs runs reuse_warm or reuse_off: SubmitScript calls cycling over day
// D's jobs from a closed loop of clients.
func runJobs(c *runCfg, d workloadDef) (*outcome, error) {
	cfg := worldCfg{seed: c.seed, onboard: d.onboard, size: c.size(d)}
	w, setupTimes, err := timeSetups(c.setups(), func() (*warmWorld, error) { return setupWarm(cfg) }, func(*warmWorld) {})
	if err != nil {
		return nil, err
	}
	ref, err := newReference(cfg)
	if err != nil {
		return nil, err
	}
	if err := ref.cook(w.day); err != nil {
		return nil, err
	}
	nc := clients()
	out := &outcome{metrics: make(map[string]metric), notes: make(map[string]any)}

	// The untraced phase: all of an untraced run, and the part of a traced
	// run that the counter and process metrics come from.
	share := 1.0
	if c.trace {
		share = 0.3
	}
	chk := newChecker(ref, nc)
	before := readSystem(w.sys, true)
	lr := runClosed(nc, c.duration(share), c.maxOps(), func(client, i int) (int, time.Duration, error) {
		j := w.stream.job(i)
		res, err := w.sys.SubmitScript(j)
		if err != nil {
			return 0, 0, err
		}
		if i%verifyEvery == 0 {
			chk.add(client, pending{job: j, table: res.Output, limit: -1})
		}
		return 1, 0, nil
	})
	after := readSystem(w.sys, true)
	out.attempted = len(lr.samples) + lr.failed
	out.failed = lr.failed + chk.settle()
	if lr.jobs() == 0 {
		return nil, fmt.Errorf("%s: no job completed", d.name)
	}
	if !c.trace {
		out.metrics, out.notes = finish(d, nc, lr, before.Proc, after.Proc, setupTimes)
		return out, nil
	}

	loopLayer(out.metrics, d, lr)
	procLayer(out.metrics, lr, before.Proc, after.Proc)
	counterLayer(out.metrics, before, after, lr.jobs())
	untracedRate := lr.throughput()

	// The traced pass runs on a fresh, identically prepared system.
	tw, err := setupWarm(cfg)
	if err != nil {
		return nil, err
	}
	tp, err := tracedJobs(c, tw, ref, nc, c.duration(0.5))
	if err != nil {
		return nil, err
	}
	out.attempted += tp.attempted
	out.failed += tp.failed
	out.spans = tp.spans
	out.counters = map[string]float64{
		// Day D's scripts are all in the plan cache, so parse and bind never
		// run on the real path; compile runs on every level-2 miss.
		"runs.sqlparser.parse":   0,
		"runs.plan.bind":         0,
		"runs.optimizer.compile": 1 - out.metrics["core.plancache_hit_ratio"].Value,
		"runs.signature.sign":    1 - out.metrics["core.plancache_hit_ratio"].Value,
		"runs.insights.fetch":    out.metrics["insights.fetches_per_job"].Value,
		"runs.storage.write":     out.metrics["optimizer.proposed_per_job"].Value,
	}
	tp.layerMetrics(out.metrics, out.counters)
	out.metrics["trace.overhead_ratio"] = metric{Value: tp.rate / untracedRate, Unit: "ratio"}
	naMetrics(out.metrics, "catalog.publish_us", "core.runday_us_per_job")
	naServer(out.metrics)

	// The observability arms: the same stream against the untraced phase's
	// system and against one built with DisableObservability, to price the
	// production default. The arms alternate in short turns so that a change
	// in the machine's speed falls on both.
	offCfg := cfg
	offCfg.obsOff = true
	ow, err := setupWarm(offCfg)
	if err != nil {
		return nil, err
	}
	arms := []*warmWorld{w, ow}
	next := []int{out.attempted, 0} // each arm's first unused op index
	var latNs [2]float64
	var ops [2]int
	for turn := 0; turn < 4; turn++ {
		arm := turn % 2
		first := next[arm]
		alr := runClosed(nc, c.duration(0.05), c.maxOps(), func(_, i int) (int, time.Duration, error) {
			_, err := arms[arm].sys.SubmitScript(arms[arm].stream.job(first + i))
			return 1, 0, err
		})
		next[arm] += len(alr.samples) + alr.failed + nc
		out.attempted += len(alr.samples) + alr.failed
		out.failed += alr.failed
		for _, s := range alr.samples {
			latNs[arm] += float64(s.lat)
		}
		ops[arm] += len(alr.samples)
	}
	if ops[0] == 0 || ops[1] == 0 {
		return nil, fmt.Errorf("%s: an observability arm completed no job", d.name)
	}
	out.metrics["obs.on_off_ratio"] = metric{Value: (latNs[0] / float64(ops[0])) / (latNs[1] / float64(ops[1])), Unit: "ratio"}
	return out, nil
}

func naMetrics(m map[string]metric, names ...string) {
	for _, n := range names {
		m[n] = metric{Unit: unitOf(n), NA: true}
	}
}

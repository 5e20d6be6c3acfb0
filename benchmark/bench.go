package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"cloudviews"
	"cloudviews/internal/data"
)

// metric is one reported number. NA marks a per-layer metric that does not
// apply to the workload (no server on reuse_warm, say): the text output says
// so, and the driver's result line, which must carry a number, carries 0.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	NA    bool    `json:"not_applicable,omitempty"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the bounded metrics of an untraced run, in print order.
// BENCHMARK.json carries the same names with their direction and bound. None
// of them is a speed. The shared host this runs on changes speed by a quarter
// over minutes, a whole run being fast or slow, so throughput, latency and
// CPU per job do not repeat within any bound the contract allows (README,
// "Why speed itself carries no bound"); they are reported as loopSpeed. What
// repeats is what that swing leaves alone: allocation per job, and the tail
// percentile over the median of the same run, since it moves every
// percentile alike.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_tail_ratio", "ratio"},
	{"allocs_per_job", "count"},
	{"bytes_per_job", "B"},
	{"retained_b_per_job", "B"},
}

// loopSpeed are the closed loop's throughput, latency and CPU cost: the first
// per-layer metrics of a traced run (from its untraced phase), and printed by
// an untraced run after the end-to-end metrics.
var loopSpeed = perLayer[:4]

// workloadDef is what distinguishes the four workloads.
type workloadDef struct {
	name string
	// onboard enables CloudViews for every VC.
	onboard bool
	size    size
	// tail is the percentile loop.lat_tail_us and lat_tail_ratio report,
	// given enough samples.
	tail float64
	run  func(*runCfg, workloadDef) (*outcome, error)
}

var (
	// warmSize is the generator's default profile: 337 jobs a day, 18 of them
	// cooking, so day D's stream of 319 scripts fits the 512-entry plan cache.
	warmSize = size{rows: 600, pipelines: 60, primeDays: 3}
	// dailySize puts raw streams above the executor's 2048-row fan-out
	// threshold, and keeps the world small (75 jobs a day) so that a day cycle
	// takes about 0.15 s and a run holds enough days for a 75th percentile.
	dailySize = size{rows: 2500, pipelines: 12, datasets: 4, primeDays: 4}
	smokeSize = size{rows: 200, pipelines: 8, primeDays: 2}
)

var workloads = []workloadDef{
	{name: "reuse_warm", onboard: true, size: warmSize, tail: 95, run: runJobs},
	{name: "reuse_off", onboard: false, size: warmSize, tail: 95, run: runJobs},
	{name: "daily_cycle", onboard: true, size: dailySize, tail: 75, run: runDaily},
	{name: "serve_mixed", onboard: true, size: warmSize, tail: 95, run: runServe},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runCfg is one invocation's arguments.
type runCfg struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string
	self    string // path of this executable, for the server child
}

// clients is the closed loop's width: one per CPU up to four, so the loop
// never has more runnable clients than the machine has cores.
func clients() int { return min(runtime.NumCPU(), 4) }

// serveClients is serve_mixed's width. Client and server are two processes on
// one machine, so the clients get half of what clients() would use and the
// server the rest. With as many connections as cores the machine is
// oversubscribed twice over, and throughput then follows thread placement:
// on two cores the same seed measured anywhere from 1,290 to 2,840 requests a
// second with two connections, and 1,340 to 1,540 with one.
func serveClients() int { return max(1, clients()/2) }

// smokeOps caps a smoke run's measured ops.
const smokeOps = 120

func (c *runCfg) maxOps() int {
	if c.smoke {
		return smokeOps
	}
	return 0
}

func (c *runCfg) size(d workloadDef) size {
	if c.smoke {
		return smokeSize
	}
	return d.size
}

// setups is how many times a run sets its system up. An untraced run reports
// the median as setup_s and measures the last; a traced run reports no set-up
// time and sets up once.
func (c *runCfg) setups() int {
	if c.trace {
		return 1
	}
	return 3
}

func (c *runCfg) duration(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// outcome is what one run of one workload produced.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]metric
	// notes are facts about the run that are not metrics: sample counts, the
	// tail percentile used, client count.
	notes map[string]any
	spans []span
	// counters are the counts recorded beside the spans in the trace file.
	counters map[string]float64
}

// verifyEvery is how often an untraced run checks a job's answer; a traced
// run checks every one.
const verifyEvery = 16

// pending is one answer awaiting comparison with the reference system.
type pending struct {
	job cloudviews.Job
	// table is an in-process answer, rendered only when the loop is over;
	// wire is an answer that arrived over HTTP.
	table *data.Table
	wire  answer
	// limit is the row count above which only the count is compared (-1 = none).
	limit int
}

// checker compares answers with the reference system after the measured
// phase, so that reference work never lands in the measurement.
type checker struct {
	ref *reference
	per [][]pending // per client, so clients never share a slice
}

func newChecker(ref *reference, clients int) *checker {
	return &checker{ref: ref, per: make([][]pending, clients)}
}

func (c *checker) add(client int, p pending) { c.per[client] = append(c.per[client], p) }

// settle returns how many of the recorded answers differ from the
// reference's, and reports the first.
func (c *checker) settle() (wrong int) {
	var all []pending
	for _, p := range c.per {
		all = append(all, p...)
	}
	// Submit order keeps the reference's clock moving forward.
	sort.Slice(all, func(a, b int) bool { return all[a].job.Submit.Before(all[b].job.Submit) })
	for _, p := range all {
		got := p.wire
		if p.table != nil {
			got = tableAnswer(p.table, p.limit)
		}
		want, err := c.ref.answer(p.job, p.limit)
		if err == nil {
			err = got.diff(want)
		}
		if err != nil {
			if wrong == 0 {
				mismatch("job %s: %v", p.job.ID, err)
			}
			wrong++
		}
	}
	return wrong
}

// finish turns a loop result and the before/after readings of the process
// under test into the metrics of an untraced run: the end-to-end metrics, and
// the loop and process layers beside them.
func finish(d workloadDef, clients int, lr loopResult, before, after procStats, setups []float64) (map[string]metric, map[string]any) {
	jobs := float64(lr.jobs())
	m := make(map[string]metric)
	tail, segmented := loopLayer(m, d, lr)
	procLayer(m, lr, before, after)
	lat := lr.latencies()
	whole := make(map[string]float64)
	for _, p := range tailLadder {
		whole[fmt.Sprintf("p%v", p)] = float64(percentile(lat, p)) / 1e3
	}
	m["setup_s"] = metric{Value: median(setups), Unit: "s"}
	m["lat_tail_ratio"] = metric{Value: m["loop.lat_tail_us"].Value / m["loop.lat_p50_us"].Value, Unit: "ratio"}
	m["allocs_per_job"] = metric{Value: float64(after.Mallocs-before.Mallocs) / jobs, Unit: "count"}
	m["bytes_per_job"] = metric{Value: float64(after.TotalAlloc-before.TotalAlloc) / jobs, Unit: "B"}
	m["retained_b_per_job"] = metric{Value: (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / jobs, Unit: "B"}
	notes := map[string]any{
		"clients":         clients,
		"ops":             len(lat),
		"jobs":            lr.jobs(),
		"tail_percentile": tail,
		// Whether the latencies are medians over time segments, and the
		// whole-run percentiles for reference.
		"segment_jobs_per_s": lr.rates(),
		"lat_segmented":      segmented,
		"lat_whole_run_us":   whole,
		"wall_s":             lr.wall.Seconds(),
		"setups_s":           setups,
	}
	return m, notes
}

// loopLayer reports the closed loop's throughput, its median latency and its
// latency at the workload's tail percentile, and returns the percentile used
// and whether the latencies are medians over time segments.
func loopLayer(m map[string]metric, d workloadDef, lr loopResult) (tail float64, segmented bool) {
	p50, _, _ := lr.latencyUs(50)
	tailUs, tail, segmented := lr.latencyUs(d.tail)
	m["loop.jobs_per_s"] = metric{Value: lr.throughput(), Unit: "1/s"}
	m["loop.lat_p50_us"] = metric{Value: p50, Unit: "us"}
	m["loop.lat_tail_us"] = metric{Value: tailUs, Unit: "us"}
	return tail, segmented
}

// procLayer is the per-layer view of the process under test over the untraced
// phase.
func procLayer(m map[string]metric, lr loopResult, before, after procStats) {
	jobs := float64(lr.jobs())
	cpu := float64(after.CPUNanos-before.CPUNanos) / 1e9
	m["proc.cpu_us_per_job"] = metric{Value: cpu * 1e6 / jobs, Unit: "us"}
	m["proc.mutex_wait_us_per_job"] = metric{Value: (after.MutexWaitSec - before.MutexWaitSec) * 1e6 / jobs, Unit: "us"}
	m["proc.gc_cpu_share"] = metric{Value: (after.GCCPUSec - before.GCCPUSec) / cpu, Unit: "ratio"}
	m["proc.gc_cycles"] = metric{Value: float64(after.GCCycles - before.GCCycles), Unit: "count"}
	m["proc.sched_lat_p99_us"] = metric{Value: schedP99(before, after) * 1e6, Unit: "us"}
	m["proc.goroutines_end"] = metric{Value: float64(after.Goroutines), Unit: "count"}
	m["proc.heap_end_mb"] = metric{Value: float64(after.HeapAlloc) / (1 << 20), Unit: "MB"}
}

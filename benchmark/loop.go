package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// procStats is one cumulative reading of the process under test: this process
// for the in-process workloads, the server child for serve_mixed (which
// returns it as JSON from its /bench/stats route).
type procStats struct {
	Mallocs      uint64
	TotalAlloc   uint64
	HeapAlloc    uint64
	CPUNanos     int64 // user + system, from getrusage
	MutexWaitSec float64
	GCCPUSec     float64
	GCCycles     uint64
	Goroutines   int
	// SchedCounts are the cumulative bucket counts of /sched/latencies:seconds;
	// the bucket bounds are the runtime's and the same in parent and child.
	SchedCounts []uint64
}

const (
	mMutexWait = "/sync/mutex/wait/total:seconds"
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mGCCycles  = "/gc/cycles/total:gc-cycles"
	mSchedLat  = "/sched/latencies:seconds"
)

// readProc reads this process. With gc set it collects first, so HeapAlloc is
// what is still reachable.
func readProc(gc bool) procStats {
	if gc {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := procStats{
		Mallocs:    ms.Mallocs,
		TotalAlloc: ms.TotalAlloc,
		HeapAlloc:  ms.HeapAlloc,
		CPUNanos:   ru.Utime.Nano() + ru.Stime.Nano(),
		Goroutines: runtime.NumGoroutine(),
	}
	samples := []metrics.Sample{{Name: mMutexWait}, {Name: mGCCPU}, {Name: mGCCycles}, {Name: mSchedLat}}
	metrics.Read(samples)
	s.MutexWaitSec = samples[0].Value.Float64()
	s.GCCPUSec = samples[1].Value.Float64()
	s.GCCycles = samples[2].Value.Uint64()
	s.SchedCounts = append([]uint64(nil), samples[3].Value.Float64Histogram().Counts...)
	return s
}

// schedP99 returns the 99th percentile of scheduling latency, in seconds,
// between two readings.
func schedP99(before, after procStats) float64 {
	samples := []metrics.Sample{{Name: mSchedLat}}
	metrics.Read(samples)
	bounds := samples[0].Value.Float64Histogram().Buckets
	if len(after.SchedCounts) != len(bounds)-1 || len(before.SchedCounts) != len(after.SchedCounts) {
		return 0
	}
	var total uint64
	for i := range after.SchedCounts {
		total += after.SchedCounts[i] - before.SchedCounts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i := range after.SchedCounts {
		seen += after.SchedCounts[i] - before.SchedCounts[i]
		if seen >= want {
			// Report the bucket's upper bound; the last bucket is open-ended.
			if up := bounds[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return bounds[i]
		}
	}
	return 0
}

// sample is one completed op.
type sample struct {
	start, end int64 // ns since the loop started
	lat        int64 // ns, call to return, less the benchmark's own work
	jobs       int   // jobs the op completed
}

// loopResult is what a closed loop measured.
type loopResult struct {
	wall    time.Duration
	samples []sample
	failed  int // ops that errored, were refused, or answered wrongly
}

func (r loopResult) jobs() int {
	n := 0
	for _, s := range r.samples {
		n += s.jobs
	}
	return n
}

// runClosed drives op from clients goroutines, each starting its next op when
// the previous one returns, until dur has passed or maxOps ops (0 = no cap)
// have started. Client c owns ops c, c+clients, c+2·clients, …, so the
// clients share no feeder. op returns the jobs it completed and how much of
// its time was the benchmark's own work (fetching rows to check an answer),
// which is left out of the op's latency.
func runClosed(clients int, dur time.Duration, maxOps int, op func(client, i int) (jobs int, untimed time.Duration, err error)) loopResult {
	type perClient struct {
		samples []sample
		failed  int
	}
	per := make([]perClient, clients)
	for c := range per {
		per[c].samples = make([]sample, 0, 1<<14)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pc := &per[c]
			for i := c; maxOps == 0 || i < maxOps; i += clients {
				t0 := time.Since(start)
				if t0 >= dur {
					return
				}
				jobs, untimed, err := op(c, i)
				t1 := time.Since(start)
				if err != nil {
					pc.failed++
					continue
				}
				pc.samples = append(pc.samples, sample{start: int64(t0), end: int64(t1), lat: int64(t1 - t0 - untimed), jobs: jobs})
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{wall: time.Since(start)}
	for _, pc := range per {
		res.samples = append(res.samples, pc.samples...)
		res.failed += pc.failed
	}
	return res
}

// segments is how many equal time slices throughput is taken over.
const segments = 10

// rates returns jobs completed per second in each of the run's time segments.
func (r loopResult) rates() []float64 {
	ops := make([]interval, len(r.samples))
	for i, s := range r.samples {
		ops[i] = interval{start: s.start, end: s.end, jobs: float64(s.jobs)}
	}
	return segmentRates(ops, int64(r.wall), segments)
}

// throughput is the median over the run's time segments of jobs completed per
// second.
func (r loopResult) throughput() float64 { return median(r.rates()) }

// latencies returns the op latencies in ascending order.
func (r loopResult) latencies() []int64 {
	lat := make([]int64, len(r.samples))
	for i, s := range r.samples {
		lat[i] = s.lat
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	return lat
}

// latencyUs reports op latency at the want-th percentile, in microseconds,
// with the percentile actually used. When every time segment holds enough
// samples to leave ten beyond the percentile, the value is the median over
// segments of each segment's percentile, which a burst confined to a segment
// or two does not move; a run of few, long ops (daily_cycle) falls back to the
// percentile of the whole run, lowered until ten samples lie beyond it.
func (r loopResult) latencyUs(want float64) (us, used float64, segmented bool) {
	per := make([][]int64, segments)
	width := float64(r.wall) / segments
	for _, s := range r.samples {
		seg := min(int(float64(s.end)/width), segments-1)
		per[seg] = append(per[seg], s.lat)
	}
	fewest := len(r.samples)
	for _, lat := range per {
		fewest = min(fewest, len(lat))
	}
	if float64(fewest)*(100-want)/100 >= 10 {
		vals := make([]float64, segments)
		for i, lat := range per {
			sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
			vals[i] = float64(percentile(lat, want)) / 1e3
		}
		return median(vals), want, true
	}
	lat := r.latencies()
	used = tailPercentile(len(lat), want)
	return float64(percentile(lat, used)) / 1e3, used, false
}

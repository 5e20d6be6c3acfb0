package main

import (
	"sort"
	"sync"
	"time"
)

const (
	// openRate is the fixed arrival rate of the open-loop phase, requests per
	// second: under half of what one closed-loop connection sustains on two
	// cores, so the queue drains between bursts and latency is not backlog.
	openRate = 600
	// openWorkers bounds the requests in flight. A request that finds every
	// worker busy waits in the due queue, and that wait counts in its latency.
	openWorkers = 64
)

// openResult is what the open-loop phase measured.
type openResult struct {
	attempted int
	failed    int
	metrics   map[string]metric
}

// openLoop sends serve_mixed's traffic at a fixed rate whether or not earlier
// requests have returned, as independent tenants would. Each request's latency
// runs from the instant it was due, so a stall is charged to every request it
// delays; how late the generator itself ran is reported beside it.
func openLoop(t *serveTarget, dur time.Duration, firstOp int) (*openResult, error) {
	n := int(dur.Seconds() * openRate)
	if n < 1 {
		n = 1
	}
	client := newHTTPClient(t.client.base, openWorkers)
	defer client.close()
	interval := time.Second / openRate
	lat := make([]int64, n)
	late := make([]int64, n)
	failed := make([]bool, n)
	// Sized to the number of sends, so the generator never blocks on a slow
	// server: that is what makes the loop open.
	due := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < openWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range due {
				job, kind := t.traffic.op(firstOp + k)
				err := client.submit(job, kind == kindAsync)
				lat[k] = int64(time.Since(start) - time.Duration(k)*interval)
				failed[k] = err != nil
			}
		}()
	}
	for k := 0; k < n; k++ {
		at := time.Duration(k) * interval
		if d := at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		late[k] = int64(time.Since(start) - at)
		due <- k
	}
	close(due)
	wg.Wait()

	res := &openResult{attempted: n, metrics: make(map[string]metric)}
	ok := lat[:0]
	for k, l := range lat {
		if failed[k] {
			res.failed++
			continue
		}
		ok = append(ok, l)
	}
	sort.Slice(ok, func(a, b int) bool { return ok[a] < ok[b] })
	sort.Slice(late, func(a, b int) bool { return late[a] < late[b] })
	res.metrics["server.open_p50_us"] = metric{Value: float64(percentile(ok, 50)) / 1e3, Unit: "us"}
	res.metrics["server.open_p99_us"] = metric{Value: float64(percentile(ok, tailPercentile(len(ok), 99))) / 1e3, Unit: "us"}
	res.metrics["server.open_late_p99_us"] = metric{Value: float64(percentile(late, tailPercentile(len(late), 99))) / 1e3, Unit: "us"}
	return res, nil
}

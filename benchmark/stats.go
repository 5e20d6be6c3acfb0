package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail latency may be reported at.
var tailLadder = []float64{50, 75, 80, 90, 95, 99}

// tailPercentile returns the highest percentile of the ladder, no higher than
// want, that leaves at least ten of n samples beyond it — the choosing-metrics
// rule for how far into the tail a sample can speak.
func tailPercentile(n int, want float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if p <= want && float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// interval is one op on the run's clock, in nanoseconds, with the jobs it
// completed.
type interval struct {
	start, end int64
	jobs       float64
}

// segmentRates splits [0, wall) into k equal time segments and returns the
// jobs completed per second in each. An op's jobs are spread evenly over the
// time it ran, so an op that spans segments (a day cycle is a tenth of a
// segment or more) counts in each for its share instead of all in the last.
// A burst from a noisy neighbour lands in one or two segments, so the median
// of the rates ignores it where the overall mean would not.
func segmentRates(ops []interval, wall int64, k int) []float64 {
	if k < 1 || wall <= 0 {
		return nil
	}
	width := float64(wall) / float64(k)
	seg := func(t int64) int { return max(0, min(int(float64(t)/width), k-1)) }
	counts := make([]float64, k)
	for _, op := range ops {
		first, last := seg(op.start), seg(op.end)
		if first == last || op.end <= op.start {
			counts[last] += op.jobs
			continue
		}
		perNs := op.jobs / float64(op.end-op.start)
		for s := first; s <= last; s++ {
			from := math.Max(float64(op.start), float64(s)*width)
			to := math.Min(float64(op.end), float64(s+1)*width)
			counts[s] += perNs * (to - from)
		}
	}
	for i := range counts {
		counts[i] /= width / 1e9
	}
	return counts
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method), which is what
// the repeatability check is stated in.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(q int) float64 {
		pos := float64(q) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	if n < 2 {
		return s[0], s[0]
	}
	return at(1), at(3)
}

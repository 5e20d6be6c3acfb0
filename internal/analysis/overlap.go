// Package analysis implements the offline workload-analysis half of
// CloudViews: the overlap statistics behind Figures 2, 3, 8, and 9, the §5.4
// estimate of what pipelining concurrent queries could save, and the
// view-selection algorithms (a greedy knapsack and a BigSubs-style
// interaction-aware selector) that decide which recurring subexpressions to
// materialize under per-VC storage budgets.
package analysis

import (
	"sort"
	"time"

	"cloudviews/internal/exec"
	"cloudviews/internal/lineage"
	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
)

// ConsumerPoint is one point of the Figure 2 CDF: after sorting datasets by
// consumer count, Fraction of input streams have at most Consumers distinct
// consumers.
type ConsumerPoint struct {
	Fraction  float64
	Consumers int
}

// ConsumerCDF computes the shared-dataset CDF of a lineage graph (Figure 2):
// the distinct consuming pipelines of every dataset in it. A dataset enters
// the graph only when a job scans it, so every count is at least one,
// matching the paper's "input data streams" framing.
func ConsumerCDF(g *lineage.Graph) []ConsumerPoint {
	counts := make([]int, 0, len(g.Datasets))
	for _, node := range g.Datasets {
		counts = append(counts, len(node.Consumers))
	}
	sort.Ints(counts)
	out := make([]ConsumerPoint, len(counts))
	for i, c := range counts {
		out[i] = ConsumerPoint{Fraction: float64(i+1) / float64(len(counts)), Consumers: c}
	}
	return out
}

// PercentileConsumers returns the consumer count at the given top quantile,
// e.g. q=0.9 answers "10% of the inputs get reused by more than N downstream
// consumers".
func PercentileConsumers(cdf []ConsumerPoint, q float64) int {
	if len(cdf) == 0 {
		return 0
	}
	idx := int(q * float64(len(cdf)))
	if idx >= len(cdf) {
		idx = len(cdf) - 1
	}
	return cdf[idx].Consumers
}

// OverlapPoint is one bucket of the Figure 3 series.
type OverlapPoint struct {
	Start time.Time
	// RepeatedPct is the percentage of subexpression instances whose
	// recurring signature occurs more than once in the bucket.
	RepeatedPct float64
	// AvgRepeatFrequency is instances / distinct recurring signatures.
	AvgRepeatFrequency float64
	// Instances and Distinct are the raw counts.
	Instances int
	Distinct  int
}

// OverlapSeries computes the repeated-subexpression percentage and average
// repeat frequency per bucket over [from, to) (Figure 3: 10 months, weekly
// buckets in the paper).
func OverlapSeries(repo *repository.Repo, from, to time.Time, bucket time.Duration) []OverlapPoint {
	var out []OverlapPoint
	for start := from; start.Before(to); start = start.Add(bucket) {
		end := start.Add(bucket)
		if end.After(to) {
			end = to
		}
		groups := repo.GroupByRecurring(start, end)
		instances, repeated := 0, 0
		for _, g := range groups {
			instances += g.Count
			if g.Count > 1 {
				repeated += g.Count
			}
		}
		p := OverlapPoint{Start: start, Instances: instances, Distinct: len(groups)}
		if instances > 0 {
			p.RepeatedPct = 100 * float64(repeated) / float64(instances)
			p.AvgRepeatFrequency = float64(instances) / float64(len(groups))
		}
		out = append(out, p)
	}
	return out
}

// JoinSetGroup is one Figure 8 group: subexpressions that join the same set
// of inputs (and could be merged into a generalized view), with the total
// occurrence frequency.
type JoinSetGroup struct {
	Datasets []string
	// DistinctSubexprs is how many different recurring subexpressions join
	// this input set.
	DistinctSubexprs int
	// Frequency is the total occurrence count across those subexpressions.
	Frequency int
}

// GeneralizedReuse groups join subexpressions by their joined input sets
// (Figure 8). Only multi-input subexpressions participate; groups are
// returned sorted by descending frequency.
func GeneralizedReuse(repo *repository.Repo, from, to time.Time) []JoinSetGroup {
	groups := repo.GroupByRecurring(from, to)
	bySet := make(map[string]*JoinSetGroup)
	for _, g := range groups {
		if g.Op != "Join" || len(g.InputDatasets) < 2 {
			continue
		}
		key := ""
		for _, d := range g.InputDatasets {
			key += d + "|"
		}
		jg, ok := bySet[key]
		if !ok {
			jg = &JoinSetGroup{Datasets: g.InputDatasets}
			bySet[key] = jg
		}
		jg.DistinctSubexprs++
		jg.Frequency += g.Count
	}
	out := make([]JoinSetGroup, 0, len(bySet))
	for _, jg := range bySet {
		out = append(out, *jg)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Frequency != out[j].Frequency {
			return out[i].Frequency > out[j].Frequency
		}
		return joinKey(out[i].Datasets) < joinKey(out[j].Datasets)
	})
	return out
}

func joinKey(ds []string) string {
	k := ""
	for _, d := range ds {
		k += d + "|"
	}
	return k
}

// ConcurrentJoinStat is one Figure 9 histogram entry: a join subexpression
// that executed with the given peak concurrency under the given algorithm.
type ConcurrentJoinStat struct {
	Recurring   signature.Sig
	Algo        string
	Concurrency int
}

// span is one execution window, [start, end).
type span struct{ start, end time.Time }

// peakOverlap returns the largest number of spans open at one instant: a
// sweep over +1 at each start and -1 at each end. At the same instant an end
// sorts before a start, so back-to-back windows do not overlap.
func peakOverlap(spans []span) int {
	type ev struct {
		at    time.Time
		delta int
	}
	evs := make([]ev, 0, 2*len(spans))
	for _, s := range spans {
		evs = append(evs, ev{s.start, +1}, ev{s.end, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if !evs[i].at.Equal(evs[j].at) {
			return evs[i].at.Before(evs[j].at)
		}
		return evs[i].delta < evs[j].delta
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.delta
		peak = max(peak, cur)
	}
	return peak
}

// ConcurrentJoins finds joins that execute concurrently (overlapping
// execution windows of the same recurring join) within [from, to) — the
// reuse opportunity CloudViews cannot capture without pipelined sharing
// (§5.4). A join is a subexpression row with a JoinAlgo; its window is its
// job's. Returns per-signature peak concurrency, descending.
func ConcurrentJoins(repo *repository.Repo, from, to time.Time) []ConcurrentJoinStat {
	type key struct {
		sig  signature.Sig
		algo string
	}
	byKey := make(map[key][]span)
	for _, j := range repo.JobsBetween(from, to) {
		for si := range j.Subexprs {
			s := &j.Subexprs[si]
			if s.JoinAlgo == "" {
				continue
			}
			k := key{s.Recurring, s.JoinAlgo}
			byKey[k] = append(byKey[k], span{j.Start, j.End})
		}
	}
	var out []ConcurrentJoinStat
	for k, spans := range byKey {
		if peak := peakOverlap(spans); peak >= 2 {
			out = append(out, ConcurrentJoinStat{Recurring: k.sig, Algo: k.algo, Concurrency: peak})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Concurrency != out[j].Concurrency {
			return out[i].Concurrency > out[j].Concurrency
		}
		return out[i].Recurring < out[j].Recurring
	})
	return out
}

// ConcurrencyHistogram buckets the Figure 9 stats: per algorithm, a map from
// concurrency level to the number of join signatures at that level.
func ConcurrencyHistogram(stats []ConcurrentJoinStat) map[string]map[int]int {
	out := make(map[string]map[int]int)
	for _, s := range stats {
		m, ok := out[s.Algo]
		if !ok {
			m = make(map[int]int)
			out[s.Algo] = m
		}
		m[s.Concurrency]++
	}
	return out
}

// PipelineSharing is one §5.4 shareable group: occurrences of the same
// strict subexpression whose jobs execute concurrently.
type PipelineSharing struct {
	Strict    signature.Sig
	Recurring signature.Sig
	Op        string
	// Instances is the peak number of concurrently running occurrences.
	Instances int
	// SavedWork estimates the container-seconds avoided if all but one
	// instance pipelined the first one's output.
	SavedWork float64
}

// PipelineReport summarizes the §5.4 opportunity over a window.
type PipelineReport struct {
	Sharings []PipelineSharing
	// TotalSaved is the estimated container-seconds avoided.
	TotalSaved float64
	// TotalWork is the window's total processing, for context.
	TotalWork float64
}

// PipelineOpportunity estimates §5.4 of the paper: computation reuse for
// concurrent queries, which "does not require pre-materialization since
// intermediate results may be directly pipelined". It folds the eligible
// subexpressions of [from, to) by strict signature, takes each signature's
// peak concurrency over its jobs' execution windows (the Figure 9 sweep), and
// charges every instance but one the work its subtree costs minus a pipelined
// read of the first instance's output.
func PipelineOpportunity(repo *repository.Repo, from, to time.Time) *PipelineReport {
	type group struct {
		first *repository.SubexprRecord
		spans []span
	}
	byStrict := make(map[signature.Sig]*group)
	rep := &PipelineReport{}
	for _, j := range repo.JobsBetween(from, to) {
		rep.TotalWork += j.ProcessingSec
		for si := range j.Subexprs {
			s := &j.Subexprs[si]
			if s.Eligible != signature.EligibleOK || s.Work <= 0 {
				continue
			}
			g, ok := byStrict[s.Strict]
			if !ok {
				g = &group{first: s}
				byStrict[s.Strict] = g
			}
			g.spans = append(g.spans, span{j.Start, j.End})
		}
	}
	for sig, g := range byStrict {
		peak := peakOverlap(g.spans)
		if peak < 2 {
			continue
		}
		o := g.first
		saved := float64(peak-1) * (o.Work - exec.ViewReadWork(o.Rows, o.Bytes))
		if saved <= 0 {
			continue
		}
		rep.Sharings = append(rep.Sharings, PipelineSharing{
			Strict:    sig,
			Recurring: o.Recurring,
			Op:        o.Op,
			Instances: peak,
			SavedWork: saved,
		})
	}
	sort.Slice(rep.Sharings, func(i, j int) bool {
		if rep.Sharings[i].SavedWork != rep.Sharings[j].SavedWork {
			return rep.Sharings[i].SavedWork > rep.Sharings[j].SavedWork
		}
		return rep.Sharings[i].Strict < rep.Sharings[j].Strict
	})
	// Summed in the sorted order, so the total does not depend on the map's.
	for _, sh := range rep.Sharings {
		rep.TotalSaved += sh.SavedWork
	}
	return rep
}

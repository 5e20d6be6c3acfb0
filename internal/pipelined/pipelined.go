// Package pipelined prototypes §5.4 of the paper: computation reuse for
// CONCURRENT queries, which "does not require pre-materialization since
// intermediate results may be directly pipelined". It provides an opportunity
// estimator over the workload repository — the quantitative companion to the
// Figure 9 analysis.
package pipelined

import (
	"sort"
	"time"

	"cloudviews/internal/exec"
	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
)

// Sharing is one shareable group: occurrences of the same strict
// subexpression whose jobs execute concurrently.
type Sharing struct {
	Strict    signature.Sig
	Recurring signature.Sig
	Op        string
	// Instances is the peak number of concurrently running occurrences.
	Instances int
	// SavedWork estimates the container-seconds avoided if all but one
	// instance pipelined the first one's output.
	SavedWork float64
}

// Report summarizes the opportunity over a window.
type Report struct {
	Sharings []Sharing
	// TotalSaved is the estimated container-seconds avoided.
	TotalSaved float64
	// TotalWork is the window's total processing, for context.
	TotalWork float64
}

// EstimateOpportunity scans the repository for concurrently executing
// identical subexpressions and estimates the §5.4 savings. Eligible
// subexpressions only; overlap is computed per strict signature with a sweep
// over job execution windows.
func EstimateOpportunity(repo *repository.Repo, from, to time.Time, cluster string) *Report {
	type occ struct {
		start, end time.Time
		work       float64
		rows       int64
		bytes      int64
		recurring  signature.Sig
		op         string
	}
	byStrict := make(map[signature.Sig][]occ)
	rep := &Report{}
	for _, j := range repo.JobsBetween(from, to) {
		if cluster != "" && j.Cluster != cluster {
			continue
		}
		rep.TotalWork += j.ProcessingSec
		for _, s := range j.Subexprs {
			if s.Eligible != signature.EligibleOK || s.Work <= 0 {
				continue
			}
			byStrict[s.Strict] = append(byStrict[s.Strict], occ{
				start: j.Start, end: j.End, work: s.Work,
				rows: s.Rows, bytes: s.Bytes, recurring: s.Recurring, op: s.Op,
			})
		}
	}
	for sig, occs := range byStrict {
		if len(occs) < 2 {
			continue
		}
		// Sweep for peak concurrency.
		type ev struct {
			at    time.Time
			delta int
		}
		var evs []ev
		for _, o := range occs {
			evs = append(evs, ev{o.start, +1}, ev{o.end, -1})
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
			if cur > peak {
				peak = cur
			}
		}
		if peak < 2 {
			continue
		}
		o := occs[0]
		pipe := exec.ViewReadWork(o.rows, o.bytes)
		saved := float64(peak-1) * (o.work - pipe)
		if saved <= 0 {
			continue
		}
		rep.Sharings = append(rep.Sharings, Sharing{
			Strict:    sig,
			Recurring: o.recurring,
			Op:        o.op,
			Instances: peak,
			SavedWork: saved,
		})
		rep.TotalSaved += saved
	}
	sort.Slice(rep.Sharings, func(i, j int) bool {
		if rep.Sharings[i].SavedWork != rep.Sharings[j].SavedWork {
			return rep.Sharings[i].SavedWork > rep.Sharings[j].SavedWork
		}
		return rep.Sharings[i].Strict < rep.Sharings[j].Strict
	})
	return rep
}

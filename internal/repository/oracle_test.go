package repository

// The linear-scan references the windowed queries are tested against
// (sharded_test.go). Each folds all history in insertion order and ignores
// the day buckets. GroupByRecurring's reference keeps the fold the counting
// sort replaced: a partial per group, grown one occurrence at a time, sorted
// with sort.SliceStable over occLess and finalized into maps and slices of
// its own.

import (
	"sort"
	"time"

	"cloudviews/internal/signature"
)

// occLess is the documented deterministic occurrence order: submit time,
// then strict signature, then job ID.
func occLess(a, b occurrence) bool {
	if !a.job.Submit.Equal(b.job.Submit) {
		return a.job.Submit.Before(b.job.Submit)
	}
	if a.sub.Strict != b.sub.Strict {
		return a.sub.Strict < b.sub.Strict
	}
	return a.job.JobID < b.job.JobID
}

// groupPartial collects the occurrences of one recurring signature inside a
// query window.
type groupPartial struct {
	occs []occurrence
}

// partialAdd folds one subexpression into a partial map.
func partialAdd(m map[signature.Sig]*groupPartial, j *JobRecord, s *SubexprRecord) {
	g, ok := m[s.Recurring]
	if !ok {
		g = &groupPartial{}
		m[s.Recurring] = g
	}
	g.occs = append(g.occs, occurrence{job: j, sub: s})
}

// sortOccs pins the occurrence list to the documented order. Stable so that
// fully equal keys keep their insertion order.
func (g *groupPartial) sortOccs() {
	sort.SliceStable(g.occs, func(i, j int) bool { return occLess(g.occs[i], g.occs[j]) })
}

// finalizeGroup folds a partial (occurrences already in pinned order) into
// the public GroupStat. Op, eligibility and input datasets come from
// the occurrence that sorts first, and the float sums run over the pinned
// order, so the result does not depend on insertion order.
func finalizeGroup(p *groupPartial) *GroupStat {
	first, n := p.occs[0].sub, len(p.occs)
	g := &GroupStat{
		Recurring:     first.Recurring,
		Op:            first.Op,
		Count:         n,
		Eligible:      first.Eligible == signature.EligibleOK,
		InputDatasets: first.InputDatasets,
		Submits:       make([]time.Time, n),
		SubmitStrict:  make([]signature.Sig, n),
	}
	vcCounts := make(map[string]int)
	stricts := make(map[signature.Sig]struct{})
	for i, o := range p.occs {
		g.AvgRows += float64(o.sub.Rows)
		g.AvgBytes += float64(o.sub.Bytes)
		g.AvgWork += o.sub.Work
		g.Submits[i] = o.job.Submit
		g.SubmitStrict[i] = o.sub.Strict
		vcCounts[o.job.VC]++
		stricts[o.sub.Strict] = struct{}{}
	}
	g.AvgRows /= float64(n)
	g.AvgBytes /= float64(n)
	g.AvgWork /= float64(n)
	g.DistinctStrict = len(stricts)
	g.VCs = make([]string, 0, len(vcCounts))
	for vc := range vcCounts {
		g.VCs = append(g.VCs, vc)
	}
	sort.Strings(g.VCs)
	g.VCOccs = make([]int, len(g.VCs))
	for i, vc := range g.VCs {
		g.VCOccs[i] = vcCounts[vc]
	}
	return g
}

// NaiveJobsBetween is the retained linear-scan reference for JobsBetween —
// the test oracle for the sharded fast path.
func (r *Repo) NaiveJobsBetween(from, to time.Time) []*JobRecord {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*JobRecord
	for _, own := range r.all {
		if inWindow(own.rec, from, to) {
			out = append(out, own.rec)
		}
	}
	return out
}

// NaiveGroupByRecurring is the retained naive fold over all history — the
// byte-identical oracle the sharded merge is tested against.
func (r *Repo) NaiveGroupByRecurring(from, to time.Time) map[signature.Sig]*GroupStat {
	r.mu.RLock()
	defer r.mu.RUnlock()
	tmp := make(map[signature.Sig]*groupPartial)
	for _, own := range r.all {
		if !inWindow(own.rec, from, to) {
			continue
		}
		for si := range own.rec.Subexprs {
			partialAdd(tmp, own.rec, &own.rec.Subexprs[si])
		}
	}
	out := make(map[signature.Sig]*GroupStat, len(tmp))
	for sig, p := range tmp {
		p.sortOccs()
		out[sig] = finalizeGroup(p)
	}
	return out
}

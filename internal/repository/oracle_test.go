package repository

// The linear-scan references the windowed queries are tested against
// (sharded_test.go). Each folds all history in insertion order and ignores
// the day buckets.

import (
	"time"

	"cloudviews/internal/signature"
)

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

// NaiveDatasetConsumers is the retained linear-scan reference for
// DatasetConsumers — the test oracle for the sharded fast path.
func (r *Repo) NaiveDatasetConsumers(from, to time.Time, clusterName string) map[string]map[string]bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]map[string]bool)
	for _, own := range r.all {
		j := own.rec
		if clusterName != "" && j.Cluster != clusterName {
			continue
		}
		if !inWindow(j, from, to) {
			continue
		}
		for si := range j.Subexprs {
			s := &j.Subexprs[si]
			if s.Op != "Scan" {
				continue
			}
			for _, ds := range s.InputDatasets {
				set, ok := out[ds]
				if !ok {
					set = make(map[string]bool)
					out[ds] = set
				}
				set[j.Pipeline] = true
			}
		}
	}
	return out
}

// NaiveJoinExecutions is the retained linear-scan reference for
// JoinExecutions — the test oracle for the sharded fast path.
func (r *Repo) NaiveJoinExecutions(from, to time.Time, clusterName string) []JoinExecution {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []JoinExecution
	for _, own := range r.all {
		j := own.rec
		if clusterName != "" && j.Cluster != clusterName {
			continue
		}
		if !inWindow(j, from, to) {
			continue
		}
		for si := range j.Subexprs {
			s := &j.Subexprs[si]
			if s.Op != "Join" || s.JoinAlgo == "" {
				continue
			}
			out = append(out, JoinExecution{
				Recurring: s.Recurring,
				Algo:      s.JoinAlgo,
				Start:     j.Start,
				End:       j.End,
			})
		}
	}
	return out
}

// Package repository implements the workload repository at the root of the
// CloudViews architecture: a denormalized subexpressions table that pre-joins
// each logical query subexpression with the runtime metrics observed for it,
// plus the per-job telemetry the workload analyses read (Figures 2, 3, 8, 9
// all derive from this store).
//
// # Sharding
//
// Records are sharded by UTC day of their Submit time and kept once. Every
// windowed query (JobsBetween, GroupByRecurring, DatasetConsumers,
// JoinExecutions) folds only the records of the day buckets overlapping
// [from, to), on the calling goroutine, so query cost scales with the window
// size rather than with total history — the property that keeps daily
// workload analysis affordable at the paper's "10-month window" scale. The
// linear scans over all history they are tested against live in the
// package's tests.
//
// # Ownership
//
// A record is written by whoever builds it and is read-only from the moment
// it is handed to Add: the repository keeps that *JobRecord, not a copy, and
// the caller must not write to it (or to anything it points at) again. A
// SubexprRecord's InputDatasets may already be shared with other readers —
// the engine hands over the slices of its plan-cache entry. Nothing writes a
// stored record, the repository included: SetOutcome, which applies the
// scheduling results only known after cluster simulation, installs a shallow
// successor that shares Subexprs with the record it replaces. So Jobs and
// JobsBetween return the stored pointers, a reader may keep them for as long
// as it likes without a lock, and a record read before a SetOutcome simply
// stays the record without the outcome.
package repository

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"

	"cloudviews/internal/obs"
	"cloudviews/internal/signature"
)

// SubexprRecord is one row of the denormalized subexpressions table.
type SubexprRecord struct {
	JobID     string
	Strict    signature.Sig
	Recurring signature.Sig
	Op        string
	Height    int
	NodeCount int
	Eligible  signature.Eligibility
	// InputDatasets is the sorted set of base datasets under the
	// subexpression (drives the Figure 8 generalized-reuse analysis).
	InputDatasets []string
	// Runtime metrics (the "pre-joined" half of the table). Zero when the
	// subexpression was compiled but its stats were not observed. Work is
	// the SUBTREE cost in container-seconds — what a reuse of this
	// subexpression saves.
	Rows  int64
	Bytes int64
	Work  float64
	// JoinAlgo is set for join subexpressions ("Hash Join", ...).
	JoinAlgo string
	// Reused marks subexpressions served from a materialized view.
	Reused bool
	// Parent is the index of the parent subexpression within the job's
	// Subexprs slice, or -1 for the root.
	Parent int
}

// JobRecord is the per-job telemetry row.
type JobRecord struct {
	JobID    string
	Cluster  string
	VC       string
	Pipeline string
	User     string
	// Template is the job's recurring root signature; Tag its insights tag.
	Template signature.Sig
	Tag      signature.Tag
	Runtime  string // SCOPE runtime version
	Submit   time.Time
	Start    time.Time
	End      time.Time

	// Outcome metrics.
	LatencySec    float64
	ProcessingSec float64
	BonusSec      float64
	Containers    int
	InputBytes    int64
	DataReadBytes int64
	QueueLen      int
	ViewsBuilt    int
	ViewsReused   int

	// Failure/recovery outcomes (zero on fault-free runs): job attempts
	// consumed (1 = first try succeeded), cluster stage retries, bonus
	// preemptions, critical-path seconds lost to faults, and view reads that
	// fell back to recomputation.
	Attempts         int
	StageRetries     int
	BonusPreemptions int
	FaultDelaySec    float64
	ReuseFallbacks   int

	Subexprs []SubexprRecord
}

// Outcome carries the scheduling results that only exist after the cluster
// simulation ran; SetOutcome files it under the job.
type Outcome struct {
	Start         time.Time
	End           time.Time
	LatencySec    float64
	ProcessingSec float64
	BonusSec      float64
	Containers    int
	InputBytes    int64
	DataReadBytes int64
	QueueLen      int

	// Failure/recovery results; see the matching JobRecord fields.
	Attempts         int
	StageRetries     int
	BonusPreemptions int
	FaultDelaySec    float64
	ReuseFallbacks   int
}

const secondsPerDay = 86400

// dayOf returns the UTC day bucket (days since the Unix epoch, floored) of t.
func dayOf(t time.Time) int64 {
	s := t.Unix()
	d := s / secondsPerDay
	if s%secondsPerDay < 0 {
		d--
	}
	return d
}

// occurrence is one instance of a recurring subexpression: the owned job
// record and the subexpression row inside it.
type occurrence struct {
	job *JobRecord
	sub *SubexprRecord
}

// occCmp is the documented deterministic occurrence order: submit time, then
// strict signature, then job ID.
func occCmp(a, b occurrence) int {
	if c := a.job.Submit.Compare(b.job.Submit); c != 0 {
		return c
	}
	if c := cmp.Compare(a.sub.Strict, b.sub.Strict); c != 0 {
		return c
	}
	return cmp.Compare(a.job.JobID, b.job.JobID)
}

// ownedRecord pairs a job's current record — the one handed to Add, or the
// successor its last SetOutcome installed — with its global insertion
// sequence number.
type ownedRecord struct {
	seq int
	rec *JobRecord
}

// Repo is the thread-safe, day-sharded workload repository.
type Repo struct {
	mu sync.RWMutex
	// byDay shards the records by UTC day of Submit, each day in insertion
	// order; days holds the sorted keys.
	byDay    map[int64][]*ownedRecord
	days     []int64
	all      []*ownedRecord
	byID     map[string]*ownedRecord
	subexprs int
	maxInBkt int

	// Metrics are optional (nil-safe) and deterministic in simulated time;
	// the timing histograms additionally need a wall clock via SetTimer.
	mBuckets    *obs.Gauge
	mBucketMax  *obs.Gauge
	mJobs       *obs.Counter
	mSubexprs   *obs.Counter
	mQueries    *obs.Counter
	mMergedBkts *obs.Counter
	hMerge      *obs.Histogram
	hQuery      *obs.Histogram
	nowNanos    func() int64
}

// New creates an empty repository.
func New() *Repo {
	return &Repo{
		byDay: make(map[int64][]*ownedRecord),
		byID:  make(map[string]*ownedRecord),
	}
}

// SetMetrics registers the repository's counters and gauges (bucket count,
// records per bucket, jobs, subexpressions, queries, buckets folded) plus the
// merge/query duration histograms in reg (merge: a GroupByRecurring's time
// after its fold; query: all of it). The duration histograms record
// nothing until a wall clock is supplied with SetTimer, so a simulated-time
// deployment keeps a fully deterministic metrics export. Call before use.
func (r *Repo) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.mBuckets = reg.Gauge("cloudviews_repo_buckets")
	r.mBucketMax = reg.Gauge("cloudviews_repo_bucket_records_max")
	r.mJobs = reg.Counter("cloudviews_repo_jobs_total")
	r.mSubexprs = reg.Counter("cloudviews_repo_subexprs_total")
	r.mQueries = reg.Counter("cloudviews_repo_queries_total")
	r.mMergedBkts = reg.Counter("cloudviews_repo_merged_buckets_total")
	secs := []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}
	r.hMerge = reg.Histogram("cloudviews_repo_merge_seconds", secs)
	r.hQuery = reg.Histogram("cloudviews_repo_query_seconds", secs)
}

// SetTimer supplies a monotonic nanosecond clock for the merge/query duration
// histograms. Left nil (the default), durations are not recorded — wall-clock
// time must never leak into simulated-time metric exports. Call before use.
func (r *Repo) SetTimer(nowNanos func() int64) { r.nowNanos = nowNanos }

// Add files rec in its UTC-day bucket. The repository keeps rec itself: the
// caller must not write to it afterwards (see Ownership).
func (r *Repo) Add(rec *JobRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()

	own := &ownedRecord{seq: len(r.all), rec: rec}
	r.all = append(r.all, own)
	r.byID[rec.JobID] = own
	r.subexprs += len(rec.Subexprs)

	day := dayOf(rec.Submit)
	jobs, ok := r.byDay[day]
	if !ok {
		i := sort.Search(len(r.days), func(i int) bool { return r.days[i] >= day })
		r.days = append(r.days, 0)
		copy(r.days[i+1:], r.days[i:])
		r.days[i] = day
	}
	jobs = append(jobs, own)
	r.byDay[day] = jobs

	r.mJobs.Inc()
	r.mSubexprs.Add(float64(len(rec.Subexprs)))
	r.mBuckets.Set(float64(len(r.byDay)))
	if len(jobs) > r.maxInBkt {
		r.maxInBkt = len(jobs)
		r.mBucketMax.Set(float64(r.maxInBkt))
	}
}

// SetOutcome applies the post-scheduling outcome for jobID, returning false if
// the job is unknown. The stored record is not written: a shallow copy with
// the outcome fields set (Subexprs shared) takes its place, so records already
// handed out by Jobs or JobsBetween keep reading as they did. Outcome fields
// never move a record across buckets (sharding is by Submit).
func (r *Repo) SetOutcome(jobID string, o Outcome) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	own, ok := r.byID[jobID]
	if !ok {
		return false
	}
	c := *own.rec
	c.Start = o.Start
	c.End = o.End
	c.LatencySec = o.LatencySec
	c.ProcessingSec = o.ProcessingSec
	c.BonusSec = o.BonusSec
	c.Containers = o.Containers
	c.InputBytes = o.InputBytes
	c.DataReadBytes = o.DataReadBytes
	c.QueueLen = o.QueueLen
	c.Attempts = o.Attempts
	c.StageRetries = o.StageRetries
	c.BonusPreemptions = o.BonusPreemptions
	c.FaultDelaySec = o.FaultDelaySec
	c.ReuseFallbacks = o.ReuseFallbacks
	own.rec = &c
	return true
}

// Len returns the number of job records.
func (r *Repo) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.all)
}

// SubexprCount returns the total number of subexpression rows.
func (r *Repo) SubexprCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.subexprs
}

// Jobs returns all records in insertion order. The records are the stored
// ones, shared with every other reader: read-only (see Ownership).
func (r *Repo) Jobs() []*JobRecord {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*JobRecord, len(r.all))
	for i, own := range r.all {
		out[i] = own.rec
	}
	return out
}

func inWindow(j *JobRecord, from, to time.Time) bool {
	return !j.Submit.Before(from) && j.Submit.Before(to)
}

// window returns the owned records with Submit in [from, to) — day by day,
// in insertion order within a day — and the number of day buckets read. Every
// windowed query starts here; callers hold the repository's lock.
func (r *Repo) window(from, to time.Time) (recs []*ownedRecord, buckets int) {
	if !from.Before(to) {
		return nil, 0
	}
	fromDay := dayOf(from)
	lastDay := dayOf(to.Add(-time.Nanosecond))
	lo := sort.Search(len(r.days), func(i int) bool { return r.days[i] >= fromDay })
	for i := lo; i < len(r.days) && r.days[i] <= lastDay; i++ {
		buckets++
		for _, own := range r.byDay[r.days[i]] {
			if inWindow(own.rec, from, to) {
				recs = append(recs, own)
			}
		}
	}
	return recs, buckets
}

// bySeq puts records gathered day by day back into global insertion order.
func bySeq(recs []*ownedRecord) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
}

// JobsBetween returns the records with Submit in [from, to), in insertion
// order. Like Jobs, it returns the stored records: read-only.
func (r *Repo) JobsBetween(from, to time.Time) []*JobRecord {
	r.mu.RLock()
	defer r.mu.RUnlock()
	recs, _ := r.window(from, to)
	bySeq(recs)
	var out []*JobRecord
	for _, own := range recs {
		out = append(out, own.rec)
	}
	return out
}

// GroupStat aggregates the occurrences of one recurring subexpression.
//
// Ordering contract: the per-occurrence slices (Jobs, Submits, SubmitStrict)
// are pinned to a documented deterministic order — submit time, then strict
// signature, then job ID — and VCs is sorted ascending, so workload analysis
// and schedule-aware selection observe identical bytes regardless of
// insertion order.
//
// The slices of all the groups one GroupByRecurring returns are windows of a
// few arrays shared among them, each capped at its length: read-only, like the
// records they come from.
type GroupStat struct {
	Recurring signature.Sig
	Op        string
	Count     int
	// DistinctStrict counts distinct instances (distinct inputs/params).
	DistinctStrict int
	AvgRows        float64
	AvgBytes       float64
	AvgWork        float64
	Eligible       bool
	// InputDatasets is the first occurrence's list, shared with its stored
	// record: read-only.
	InputDatasets []string
	VCs           []string
	// VCOccs[i] is the number of occurrences VCs[i] contributed.
	VCOccs []int
	Jobs   []string
	// Submits are the submission times of each occurrence's job, used by
	// schedule-aware view selection; SubmitStrict[i] is the strict signature
	// of the i-th occurrence (reuse only happens among occurrences sharing a
	// strict instance).
	Submits      []time.Time
	SubmitStrict []signature.Sig
	// Height of the subexpression (operator tree height).
	Height int
}

// GroupByRecurring folds the subexpressions table by recurring signature —
// the unit of workload analysis and view selection. Only jobs in [from, to)
// participate.
//
// The fold is a counting sort: one pass over the window numbers the groups
// and counts their occurrences, a second places every occurrence at its
// group's offset in one array (in window order), and each group's run is then
// sorted stably into the pinned order. Every GroupStat and every slice in it
// is carved from window-sized arrays, so the allocations do not grow with the
// number of groups. Op, eligibility, height and input datasets come from the
// occurrence that sorts first, and the float sums run over the pinned order,
// so the result does not depend on insertion order.
func (r *Repo) GroupByRecurring(from, to time.Time) map[signature.Sig]*GroupStat {
	var t0 int64
	if r.nowNanos != nil {
		t0 = r.nowNanos()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.mQueries.Inc()

	recs, buckets := r.window(from, to)
	r.mMergedBkts.Add(float64(buckets))
	n := 0
	for _, own := range recs {
		n += len(own.rec.Subexprs)
	}
	// ids numbers the groups in discovery order and gid[k] is the group of
	// the window's k-th occurrence. end[g] first counts group g's
	// occurrences, then is where its run starts, and once every occurrence is
	// placed it is where the run ends (and the next one starts).
	ids := make(map[signature.Sig]int32)
	gid := make([]int32, 0, n)
	var end []int
	for _, own := range recs {
		for si := range own.rec.Subexprs {
			sig := own.rec.Subexprs[si].Recurring
			g, ok := ids[sig]
			if !ok {
				g = int32(len(end))
				ids[sig] = g
				end = append(end, 0)
			}
			end[g]++
			gid = append(gid, g)
		}
	}
	at := 0
	for g, c := range end {
		end[g] = at
		at += c
	}
	occs := make([]occurrence, n)
	k := 0
	for _, own := range recs {
		for si := range own.rec.Subexprs {
			g := gid[k]
			occs[end[g]] = occurrence{job: own.rec, sub: &own.rec.Subexprs[si]}
			end[g]++
			k++
		}
	}

	var tFolded int64
	if r.nowNanos != nil {
		tFolded = r.nowNanos()
	}
	stats := make([]GroupStat, len(end))
	jobs := make([]string, n)
	submits := make([]time.Time, n)
	stricts := make([]signature.Sig, n)
	vcs := make([]string, n)
	vcOccs := make([]int, n)
	distinct := make(map[signature.Sig]struct{})
	out := make(map[signature.Sig]*GroupStat, len(stats))
	lo := 0
	for g, hi := range end {
		run := occs[lo:hi]
		slices.SortStableFunc(run, occCmp)
		first := run[0].sub
		st := &stats[g]
		*st = GroupStat{
			Recurring:     first.Recurring,
			Op:            first.Op,
			Count:         len(run),
			Eligible:      first.Eligible == signature.EligibleOK,
			Height:        first.Height,
			InputDatasets: first.InputDatasets,
			Jobs:          jobs[lo:hi:hi],
			Submits:       submits[lo:hi:hi],
			SubmitStrict:  stricts[lo:hi:hi],
		}
		clear(distinct)
		for i, o := range run {
			st.AvgRows += float64(o.sub.Rows)
			st.AvgBytes += float64(o.sub.Bytes)
			st.AvgWork += o.sub.Work
			st.Jobs[i] = o.job.JobID
			st.Submits[i] = o.job.Submit
			st.SubmitStrict[i] = o.sub.Strict
			vcs[lo+i] = o.job.VC
			distinct[o.sub.Strict] = struct{}{}
		}
		st.AvgRows /= float64(len(run))
		st.AvgBytes /= float64(len(run))
		st.AvgWork /= float64(len(run))
		st.DistinctStrict = len(distinct)
		st.VCs, st.VCOccs = countRuns(vcs[lo:hi], vcOccs[lo:hi])
		out[first.Recurring] = st
		lo = hi
	}
	if r.nowNanos != nil {
		now := r.nowNanos()
		r.hMerge.Observe(float64(now-tFolded) / 1e9)
		r.hQuery.Observe(float64(now-t0) / 1e9)
	}
	return out
}

// countRuns sorts names and folds each run of equal names into its first
// slot, counting it in the same slot of counts; it returns the distinct names
// and their counts, prefixes of the two arrays capped at their length.
func countRuns(names []string, counts []int) ([]string, []int) {
	slices.Sort(names)
	k := 0
	for i, name := range names {
		if i > 0 && name == names[k-1] {
			counts[k-1]++
			continue
		}
		names[k], counts[k] = name, 1
		k++
	}
	return names[:k:k], counts[:k:k]
}

// DatasetConsumers returns, per dataset, the set of distinct consumers
// (pipelines) that scanned it — the Figure 2 quantity.
func (r *Repo) DatasetConsumers(from, to time.Time, clusterName string) map[string]map[string]bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]map[string]bool)
	recs, _ := r.window(from, to)
	for _, own := range recs {
		j := own.rec
		if clusterName != "" && j.Cluster != clusterName {
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

// JoinExecution is one executed join instance with its job's execution
// window, used by the concurrency analysis (Figure 9).
type JoinExecution struct {
	Recurring signature.Sig
	Algo      string
	Start     time.Time
	End       time.Time
}

// JoinExecutions returns all join subexpression executions in the window, in
// insertion order.
func (r *Repo) JoinExecutions(from, to time.Time, clusterName string) []JoinExecution {
	r.mu.RLock()
	defer r.mu.RUnlock()
	recs, _ := r.window(from, to)
	bySeq(recs)
	var out []JoinExecution
	for _, own := range recs {
		j := own.rec
		if clusterName != "" && j.Cluster != clusterName {
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

// Package stats provides the two statistics sources the optimizer consults:
// a compile-time cardinality estimator with the systematic overestimation
// biases the paper describes for big-data engines (over-partitioning, §3.5),
// and a runtime history keyed by recurring signature that records what
// actually happened — the feedback loop's memory. Because CloudViews reuses
// only identical logical subexpressions, historical observations apply
// exactly, which is the paper's "accurate cost estimates" design point.
package stats

import (
	"sort"
	"sync"

	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
)

// Estimate is a compile-time cardinality/size estimate for one operator.
type Estimate struct {
	Rows  float64
	Bytes float64
}

// Estimator computes compile-time estimates. The default selectivities are
// deliberately generous: real engines routinely overestimate over big data
// (the paper cites [43]), and that overestimation is what produces the
// container over-partitioning that reuse later avoids.
type Estimator struct {
	// FilterSelectivity is the assumed fraction of rows passing a predicate
	// (default 0.35 — generous).
	FilterSelectivity float64
	// JoinFanout multiplies max(|L|,|R|) for equi-joins (default 1.4 —
	// generous).
	JoinFanout float64
	// AggReduction is the assumed group count as a fraction of input rows
	// (default 0.4 — generous; real reductions are usually much stronger).
	AggReduction float64
	// RowBytes is the assumed width of a row when no better information
	// exists (default 256).
	RowBytes float64
}

// NewEstimator returns an estimator with the default biases.
func NewEstimator() *Estimator {
	return &Estimator{FilterSelectivity: 0.35, JoinFanout: 1.4, AggReduction: 0.4, RowBytes: 256}
}

// EstimateNode computes the estimate for a single node given child estimates,
// mirroring how a cascades costing pass folds bottom-up.
func (e *Estimator) EstimateNode(n plan.Node, children []Estimate) Estimate {
	switch x := n.(type) {
	case *plan.Scan:
		rows := float64(x.BaseRows)
		return Estimate{Rows: rows, Bytes: rows * e.RowBytes}
	case *plan.ViewScan:
		// Views carry exact statistics from their materialization.
		return Estimate{Rows: float64(x.Rows), Bytes: float64(x.Bytes)}
	case *plan.Filter:
		in := children[0]
		return Estimate{Rows: in.Rows * e.FilterSelectivity, Bytes: in.Bytes * e.FilterSelectivity}
	case *plan.Project:
		in := children[0]
		// Width scales with the projected column count.
		frac := 1.0
		if len(x.Child.Schema()) > 0 {
			frac = float64(len(x.Exprs)) / float64(len(x.Child.Schema()))
		}
		return Estimate{Rows: in.Rows, Bytes: in.Bytes * frac}
	case *plan.Join:
		l, r := children[0], children[1]
		if len(x.LeftKeys) == 0 {
			// Cross product with residual filter.
			rows := l.Rows * r.Rows * e.FilterSelectivity
			return Estimate{Rows: rows, Bytes: rows * e.RowBytes}
		}
		rows := maxf(l.Rows, r.Rows) * e.JoinFanout
		return Estimate{Rows: rows, Bytes: rows * e.RowBytes}
	case *plan.Aggregate:
		in := children[0]
		if len(x.GroupBy) == 0 {
			return Estimate{Rows: 1, Bytes: e.RowBytes}
		}
		rows := in.Rows * e.AggReduction
		return Estimate{Rows: rows, Bytes: rows * e.RowBytes * 0.5}
	case *plan.Union:
		return Estimate{Rows: children[0].Rows + children[1].Rows, Bytes: children[0].Bytes + children[1].Bytes}
	case *plan.UDO:
		return children[0]
	case *plan.Sample:
		in := children[0]
		f := x.Percent / 100
		return Estimate{Rows: in.Rows * f, Bytes: in.Bytes * f}
	case *plan.Sort, *plan.Spool, *plan.Output:
		return children[0]
	default:
		if len(children) > 0 {
			return children[0]
		}
		return Estimate{Rows: 1, Bytes: e.RowBytes}
	}
}

// EstimatePlan folds estimates over the whole tree and returns the per-node
// map plus the root estimate.
func (e *Estimator) EstimatePlan(root plan.Node) (map[plan.Node]Estimate, Estimate) {
	memo := make(map[plan.Node]Estimate)
	var rec func(n plan.Node) Estimate
	rec = func(n plan.Node) Estimate {
		var buf [2]plan.Node
		var ceBuf [2]Estimate
		ce := ceBuf[:0]
		for _, c := range plan.Inputs(n, &buf) {
			ce = append(ce, rec(c))
		}
		est := e.EstimateNode(n, ce)
		memo[n] = est
		return est
	}
	rootEst := rec(root)
	return memo, rootEst
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Observation is one runtime measurement of a subexpression or job.
type Observation struct {
	Rows    int64
	Bytes   int64
	Work    float64 // container-seconds of compute
	Latency float64 // wall-clock seconds on the critical path
}

// seriesCap bounds the per-signature ring buffer; the paper's methodology
// uses four weeks of observations.
const seriesCap = 64

// series accumulates observations for one recurring signature.
type series struct {
	count     int64
	sumRows   float64
	sumBytes  float64
	sumWork   float64
	recent    []Observation // ring buffer
	recentPos int
}

func (s *series) add(o Observation) {
	s.count++
	s.sumRows += float64(o.Rows)
	s.sumBytes += float64(o.Bytes)
	s.sumWork += o.Work
	if len(s.recent) < seriesCap {
		s.recent = append(s.recent, o)
	} else {
		s.recent[s.recentPos] = o
		s.recentPos = (s.recentPos + 1) % seriesCap
	}
}

// Summary is the aggregated view of a signature's history.
type Summary struct {
	Count     int64
	AvgRows   float64
	AvgBytes  float64
	AvgWork   float64
	P75Work   float64
	P75Rows   float64
	P75Bytes  float64
	P75Latenc float64
}

// History is the runtime statistics store keyed by recurring signature. It is
// safe for concurrent use.
type History struct {
	mu     sync.RWMutex
	bySig  map[signature.Sig]*series
	jobSig map[signature.Sig]*series // per-job (root) histories for baselining
}

// NewHistory creates an empty history.
func NewHistory() *History {
	return &History{
		bySig:  make(map[signature.Sig]*series),
		jobSig: make(map[signature.Sig]*series),
	}
}

// Record adds an observation for a subexpression's recurring signature.
func (h *History) Record(sig signature.Sig, o Observation) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.bySig[sig]
	if !ok {
		s = &series{}
		h.bySig[sig] = s
	}
	s.add(o)
}

// RecordJob adds an observation for a whole job keyed by its template
// (recurring root signature). Used by the production-impact estimator that
// compares post-enable instances against the 75th percentile of pre-enable
// history (paper §4, "Measuring impact").
func (h *History) RecordJob(sig signature.Sig, o Observation) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.jobSig[sig]
	if !ok {
		s = &series{}
		h.jobSig[sig] = s
	}
	s.add(o)
}

// Lookup returns the summary for a subexpression signature.
func (h *History) Lookup(sig signature.Sig) (Summary, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s, ok := h.bySig[sig]
	if !ok {
		return Summary{}, false
	}
	return summarize(s), true
}

// LookupMeans returns only the count and running averages for a signature,
// skipping the percentile fold entirely. The estimate-refresh path calls this
// once per plan node per compilation, and only ever reads the averages —
// computing four nearest-rank percentiles (two sorted copies each) there was
// pure overhead. The returned Summary has zero P75 fields.
func (h *History) LookupMeans(sig signature.Sig) (Summary, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s, ok := h.bySig[sig]
	if !ok || s.count == 0 {
		return Summary{}, ok
	}
	n := float64(s.count)
	return Summary{
		Count:    s.count,
		AvgRows:  s.sumRows / n,
		AvgBytes: s.sumBytes / n,
		AvgWork:  s.sumWork / n,
	}, true
}

// LookupJob returns the summary for a job template signature.
func (h *History) LookupJob(sig signature.Sig) (Summary, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s, ok := h.jobSig[sig]
	if !ok {
		return Summary{}, false
	}
	return summarize(s), true
}

// Signatures returns all subexpression signatures with history.
func (h *History) Signatures() []signature.Sig {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]signature.Sig, 0, len(h.bySig))
	for s := range h.bySig {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of distinct subexpression signatures observed.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.bySig)
}

func summarize(s *series) Summary {
	if s.count == 0 {
		// An empty series must not produce NaN averages.
		return Summary{}
	}
	n := float64(s.count)
	sum := Summary{
		Count:    s.count,
		AvgRows:  s.sumRows / n,
		AvgBytes: s.sumBytes / n,
		AvgWork:  s.sumWork / n,
	}
	if len(s.recent) > 0 {
		works := make([]float64, len(s.recent))
		rows := make([]float64, len(s.recent))
		bytes := make([]float64, len(s.recent))
		lats := make([]float64, len(s.recent))
		for i, o := range s.recent {
			works[i] = o.Work
			rows[i] = float64(o.Rows)
			bytes[i] = float64(o.Bytes)
			lats[i] = o.Latency
		}
		sum.P75Work = percentile(works, 0.75)
		sum.P75Rows = percentile(rows, 0.75)
		sum.P75Bytes = percentile(bytes, 0.75)
		sum.P75Latenc = percentile(lats, 0.75)
	}
	return sum
}

// percentile returns the p-quantile of xs using nearest-rank on a sorted
// copy. p is clamped to [0, 1] (NaN is treated as 0); an empty series yields
// 0, a single observation yields that observation for every p.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !(p > 0) { // also catches NaN
		p = 0
	}
	if p > 1 {
		p = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

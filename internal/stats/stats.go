// Package stats provides the two statistics sources the optimizer consults:
// a compile-time cardinality estimator with the systematic overestimation
// biases the paper describes for big-data engines (over-partitioning, §3.5),
// and a runtime history keyed by recurring signature that keeps the running
// means of what actually happened — the feedback loop's memory. Because
// CloudViews reuses only identical logical subexpressions, historical
// observations apply exactly, which is the paper's "accurate cost estimates"
// design point.
package stats

import (
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

// Observation is one runtime measurement of a subexpression.
type Observation struct {
	Rows  int64
	Bytes int64
	Work  float64 // container-seconds of compute
}

// series is the observation count and running sums of one recurring
// signature.
type series struct {
	count    int64
	sumRows  float64
	sumBytes float64
	sumWork  float64
}

// Summary is the aggregated view of a signature's history.
type Summary struct {
	Count    int64
	AvgRows  float64
	AvgBytes float64
	AvgWork  float64
}

// History is the runtime statistics store the optimizer reads: per recurring
// signature, how many times the subexpression was genuinely computed and the
// means of its rows, bytes and work. It is safe for concurrent use.
type History struct {
	mu    sync.RWMutex
	bySig map[signature.Sig]*series
}

// NewHistory creates an empty history.
func NewHistory() *History {
	return &History{bySig: make(map[signature.Sig]*series)}
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
	s.count++
	s.sumRows += float64(o.Rows)
	s.sumBytes += float64(o.Bytes)
	s.sumWork += o.Work
}

// LookupMeans returns the count and running averages for a signature. The
// estimate-refresh path calls this once per plan node per compilation.
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

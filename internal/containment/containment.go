// Package containment prototypes the generalized reuse of paper §5.3:
// answering a query subexpression from a materialized view that CONTAINS it
// rather than equals it — "materializing SELECT * FROM Sales WHERE CustomerId
// > 5 and using it to answer the query SELECT * FROM Sales WHERE CustomerId >
// 6". Full view containment is undecidable in general; this prototype covers
// the conjunctive comparison fragment the paper's Figure 8 analysis targets
// (same inputs, different selections): a view Filter(P_v, X) answers
// Filter(P_q, X) when P_q implies P_v, by scanning the view and re-applying
// P_q as a residual.
package containment

import (
	"math"
	"sort"
	"sync"

	"cloudviews/internal/data"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

// interval is a per-column constraint: an inclusive/exclusive numeric range
// plus optional string equality/inequality sets. Implication is interval
// inclusion.
type interval struct {
	lo, hi         float64
	loOpen, hiOpen bool
	// eq, when set, pins the column to exact values (disjunction of none —
	// conjunctive fragment allows at most one equality).
	eq    *data.Value
	neq   []data.Value
	valid bool
}

func fullInterval() interval {
	return interval{lo: math.Inf(-1), hi: math.Inf(1), valid: true}
}

// Predicate is the analyzed conjunctive form of a filter predicate: a map
// from column index to constraint. ok=false marks predicates outside the
// supported fragment (ORs, non-deterministic calls, cross-column terms).
type Predicate struct {
	cols map[int]interval
	ok   bool
}

// Analyze decomposes a bound predicate into per-column constraints. Returns
// ok=false when the predicate falls outside the conjunctive comparison
// fragment.
func Analyze(e plan.Expr) Predicate {
	p := Predicate{cols: make(map[int]interval), ok: true}
	for _, c := range conjuncts(e) {
		if !p.absorb(c) {
			return Predicate{ok: false}
		}
	}
	return p
}

func conjuncts(e plan.Expr) []plan.Expr {
	if b, ok := e.(*plan.Binary); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []plan.Expr{e}
}

// absorb merges one conjunct of the form <col> <op> <const> (or reversed)
// into the per-column constraints.
func (p *Predicate) absorb(e plan.Expr) bool {
	b, ok := e.(*plan.Binary)
	if !ok {
		return false
	}
	col, cok := b.L.(*plan.ColRef)
	val, vok := constVal(b.R)
	op := b.Op
	if !cok || !vok {
		// Try the reversed orientation (5 < x).
		col, cok = b.R.(*plan.ColRef)
		val, vok = constVal(b.L)
		if !cok || !vok {
			return false
		}
		op = flip(op)
	}
	iv, exists := p.cols[col.Index]
	if !exists {
		iv = fullInterval()
	}
	switch op {
	case "=":
		if iv.eq != nil && !iv.eq.Equal(val) {
			iv.valid = false
		}
		v := val
		iv.eq = &v
	case "!=":
		iv.neq = append(iv.neq, val)
	case "<":
		iv.hi, iv.hiOpen = minBound(iv.hi, iv.hiOpen, val.AsFloat(), true)
	case "<=":
		iv.hi, iv.hiOpen = minBound(iv.hi, iv.hiOpen, val.AsFloat(), false)
	case ">":
		iv.lo, iv.loOpen = maxBound(iv.lo, iv.loOpen, val.AsFloat(), true)
	case ">=":
		iv.lo, iv.loOpen = maxBound(iv.lo, iv.loOpen, val.AsFloat(), false)
	default:
		return false
	}
	p.cols[col.Index] = iv
	return true
}

func constVal(e plan.Expr) (data.Value, bool) {
	switch x := e.(type) {
	case *plan.Const:
		return x.Val, true
	case *plan.Param:
		return x.Val, true
	default:
		return data.Value{}, false
	}
}

func flip(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

func minBound(h float64, hOpen bool, v float64, vOpen bool) (float64, bool) {
	if v < h || (v == h && vOpen && !hOpen) {
		return v, vOpen
	}
	return h, hOpen
}

func maxBound(l float64, lOpen bool, v float64, vOpen bool) (float64, bool) {
	if v > l || (v == l && vOpen && !lOpen) {
		return v, vOpen
	}
	return l, lOpen
}

// Implies reports whether p (the query predicate) implies v (the view
// predicate): every row satisfying p also satisfies v, so the view's content
// is a superset of what the query needs.
func (p Predicate) Implies(v Predicate) bool {
	if !p.ok || !v.ok {
		return false
	}
	for col, viv := range v.cols {
		qiv, ok := p.cols[col]
		if !ok {
			return false // the query does not constrain a column the view filters on
		}
		if !contains(viv, qiv) {
			return false
		}
	}
	return true
}

// contains reports whether the view interval contains the query interval.
func contains(view, query interval) bool {
	if !view.valid {
		return false
	}
	if !query.valid {
		return true // the query matches nothing; anything contains it
	}
	// Equality pins.
	if view.eq != nil {
		if query.eq == nil || !query.eq.Equal(*view.eq) {
			return false
		}
	}
	if query.eq != nil {
		// The query pins a value; it must satisfy the view's constraints.
		qv := query.eq.AsFloat()
		if query.eq.Kind == data.KindString {
			// Strings only compare under equality/inequality.
			for _, ne := range view.neq {
				if ne.Equal(*query.eq) {
					return false
				}
			}
			return view.eq == nil || view.eq.Equal(*query.eq)
		}
		if qv < view.lo || (qv == view.lo && view.loOpen) {
			return false
		}
		if qv > view.hi || (qv == view.hi && view.hiOpen) {
			return false
		}
		for _, ne := range view.neq {
			if ne.Equal(*query.eq) {
				return false
			}
		}
		return true
	}
	// Range inclusion: query range must sit inside the view range.
	if query.lo < view.lo || (query.lo == view.lo && view.loOpen && !query.loOpen) {
		return false
	}
	if query.hi > view.hi || (query.hi == view.hi && view.hiOpen && !query.hiOpen) {
		return false
	}
	// Every view inequality must be guaranteed by the query: either the same
	// inequality or a range that excludes the value.
	for _, ne := range view.neq {
		if !excludes(query, ne) {
			return false
		}
	}
	return true
}

// excludes reports whether the query constraints guarantee col != v.
func excludes(q interval, v data.Value) bool {
	for _, ne := range q.neq {
		if ne.Equal(v) {
			return true
		}
	}
	if q.eq != nil && !q.eq.Equal(v) {
		return true
	}
	f := v.AsFloat()
	if v.Kind != data.KindString {
		if f < q.lo || (f == q.lo && q.loOpen) {
			return true
		}
		if f > q.hi || (f == q.hi && q.hiOpen) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Index and rewriting.

// entry is one registered generalized view.
type entry struct {
	strict signature.Sig
	pred   Predicate
	// predCanonical disambiguates views with identical child but different
	// predicates.
	predCanonical string
	schema        data.Schema
	rows          int64
}

// Index registers filter-over-X views by the strict signature of X (the
// filter's CHILD), so candidate containment checks are a hash lookup plus a
// per-candidate implication test — no search.
type Index struct {
	mu      sync.RWMutex
	byChild map[signature.Sig][]entry
}

// NewIndex creates an empty containment index.
func NewIndex() *Index { return &Index{byChild: make(map[signature.Sig][]entry)} }

// Register adds a materialized Filter(pred, child) view. Views with
// unsupported predicates are skipped (returns false).
func (ix *Index) Register(viewStrict signature.Sig, childStrict signature.Sig, pred plan.Expr, schema data.Schema, rows int64) bool {
	p := Analyze(pred)
	if !p.ok {
		return false
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.byChild[childStrict] = append(ix.byChild[childStrict], entry{
		strict:        viewStrict,
		pred:          p,
		predCanonical: plan.Canonical(pred),
		schema:        schema,
		rows:          rows,
	})
	// Smaller views first: prefer the tightest containing view.
	sort.Slice(ix.byChild[childStrict], func(i, j int) bool {
		a, b := ix.byChild[childStrict][i], ix.byChild[childStrict][j]
		if a.rows != b.rows {
			return a.rows < b.rows
		}
		return a.predCanonical < b.predCanonical
	})
	return true
}

// Len returns the number of registered views.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, es := range ix.byChild {
		n += len(es)
	}
	return n
}

// Match finds the tightest registered view over the same child whose
// predicate is implied by the query predicate.
func (ix *Index) Match(childStrict signature.Sig, queryPred plan.Expr) (signature.Sig, bool) {
	q := Analyze(queryPred)
	if !q.ok {
		return "", false
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, e := range ix.byChild[childStrict] {
		if q.Implies(e.pred) {
			return e.strict, true
		}
	}
	return "", false
}

// RewriteResult reports what a containment pass did.
type RewriteResult struct {
	Rewrites int
	Views    []signature.Sig
}

// Rewrite walks the plan top-down and replaces Filter(P_q, X) subtrees with
// Filter(P_q, ViewScan(V)) whenever the index holds a containing view V =
// Filter(P_v, X) that is sealed in the store. The residual re-application of
// P_q preserves exact semantics even when the view is strictly larger.
func Rewrite(root plan.Node, signer *signature.Signer, ix *Index, store storage.Engine) (plan.Node, RewriteResult) {
	res := RewriteResult{}
	subs := signer.Subexpressions(root)
	info := make(map[plan.Node]signature.Subexpr, len(subs))
	for _, s := range subs {
		info[s.Node] = s
	}
	var rec func(n plan.Node) plan.Node
	rec = func(n plan.Node) plan.Node {
		if f, ok := n.(*plan.Filter); ok {
			if childSub, ok := info[f.Child]; ok {
				if viewSig, found := ix.Match(childSub.Strict, f.Pred); found {
					if v, st := store.Status(viewSig); st.Servable() {
						res.Rewrites++
						res.Views = append(res.Views, viewSig)
						// The ViewScan stands for the view's own
						// subexpression; the residual filter restores the
						// query's semantics.
						sub := info[n]
						return &plan.Filter{
							Pred: f.Pred,
							Child: &plan.ViewScan{
								StrictSig:    string(viewSig),
								RecurringSig: string(sub.Recurring), // telemetry only
								Path:         v.Path,
								Out:          f.Child.Schema(),
								Rows:         v.Rows,
								Bytes:        v.Bytes,
								ReplacedOp:   "Filter(contained)",
								// The view stands for its own subexpression,
								// which equals f.Child filtered by the view's
								// predicate; recomputing f.Child (a superset)
								// is safe because the residual filter above
								// re-applies the query's predicate.
								Fallback: f.Child,
							},
						}
					}
				}
			}
		}
		children := n.Children()
		if len(children) == 0 {
			return n
		}
		newChildren := make([]plan.Node, len(children))
		changed := false
		for i, c := range children {
			newChildren[i] = rec(c)
			if newChildren[i] != c {
				changed = true
			}
		}
		if changed {
			return n.WithChildren(newChildren)
		}
		return n
	}
	out := rec(root)
	return out, res
}

// HarvestViews scans a compiled-and-executed plan for materialized
// Filter-rooted views and registers them in the index — the hook a
// generalized CloudViews would run at spool time.
func HarvestViews(root plan.Node, signer *signature.Signer, store storage.Engine, ix *Index) int {
	subs := signer.Subexpressions(root)
	info := make(map[plan.Node]signature.Subexpr, len(subs))
	for _, s := range subs {
		info[s.Node] = s
	}
	registered := 0
	plan.Walk(root, func(n plan.Node) {
		sp, ok := n.(*plan.Spool)
		if !ok {
			return
		}
		f, ok := sp.Child.(*plan.Filter)
		if !ok {
			return
		}
		childSub, ok := info[f.Child]
		if !ok {
			return
		}
		v, st := store.Status(signature.Sig(sp.StrictSig))
		if st == storage.StateAbsent || st == storage.StatePending {
			return // nothing materialized under the Spool's signature
		}
		if ix.Register(signature.Sig(sp.StrictSig), childSub.Strict, f.Pred, f.Schema(), v.Rows) {
			registered++
		}
	})
	return registered
}

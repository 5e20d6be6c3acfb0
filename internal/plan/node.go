package plan

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
)

// Node is a logical plan operator.
type Node interface {
	// Schema is the output schema of the operator.
	Schema() data.Schema
	// Children returns input operators, left to right.
	Children() []Node
	// WithChildren returns a shallow copy with the given children. len must
	// match Children().
	WithChildren(children []Node) Node
	// OpName is the stable operator name used in signatures and display.
	OpName() string
	// Attrs renders the operator's own attributes (not children) in the
	// canonical form consumed by signatures. When recurring is true,
	// time-varying attributes (input GUIDs, parameter values) are omitted.
	Attrs(recurring bool) string
}

// Scan reads one immutable version of a dataset.
type Scan struct {
	Dataset string
	GUID    catalog.GUID
	Out     data.Schema
	// BaseRows is the catalog cardinality at bind time, used by the
	// compile-time estimator.
	BaseRows int64
}

// Filter retains rows satisfying Pred.
type Filter struct {
	Pred  Expr
	Child Node
}

// Project computes output columns from input rows.
type Project struct {
	Exprs []Expr
	Names []string
	Child Node
}

// Join is an inner equi-join with optional residual predicate. LeftKeys[i]
// pairs with RightKeys[i]; RightKeys are bound against the RIGHT child's
// schema (not the concatenated schema). Residual is bound against the
// concatenated schema.
type Join struct {
	LeftKeys  []Expr
	RightKeys []Expr
	Residual  Expr
	L, R      Node
	// Algo is the physical algorithm chosen by the optimizer. It is a
	// physical property and deliberately excluded from Attrs: plans that
	// differ only in join implementation share logical signatures (the paper
	// reuses "the exact same logical query subexpressions, although they can
	// have different physical implementations").
	Algo JoinAlgo
}

// JoinAlgo enumerates physical join implementations.
type JoinAlgo uint8

const (
	JoinAuto JoinAlgo = iota
	JoinHash
	JoinMerge
	JoinLoop
)

// String names the algorithm as reported in telemetry (Figure 9).
func (a JoinAlgo) String() string {
	switch a {
	case JoinHash:
		return "Hash Join"
	case JoinMerge:
		return "Merge Join"
	case JoinLoop:
		return "Loop Join"
	default:
		return "Auto"
	}
}

// AggKind enumerates aggregate functions.
type AggKind uint8

const (
	AggSum AggKind = iota
	AggAvg
	AggCount
	AggMin
	AggMax
)

// String returns the SQL name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggCount:
		return "COUNT"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AGG(%d)", uint8(k))
	}
}

// AggSpec is one aggregate in an Aggregate node. Arg is nil for COUNT(*).
type AggSpec struct {
	Kind AggKind
	Arg  Expr
	Name string
}

// Aggregate groups by GroupBy and computes Aggs. Output schema is the group
// columns (named GroupNames) followed by the aggregate columns.
type Aggregate struct {
	GroupBy    []Expr
	GroupNames []string
	Aggs       []AggSpec
	Child      Node
}

// Union is UNION ALL of two inputs with identical schemas.
type Union struct {
	L, R Node
}

// UDO applies a registered user-defined operator. Depends lists library
// dependencies (the paper's recursive dependency chains); Nondet marks
// operators containing non-determinism by design.
type UDO struct {
	Name    string
	Depends []string
	Nondet  bool
	Child   Node
}

// Sample retains approximately Percent% of input rows (deterministic hash
// sampling so results are reproducible).
type Sample struct {
	Percent float64
	Child   Node
}

// Sort orders the child rowset by Keys (Desc[i] flips key i). SCOPE sorts
// are most often the final presentation step of a job.
type Sort struct {
	Keys  []Expr
	Desc  []bool
	Child Node
}

func (s *Sort) Schema() data.Schema { return s.Child.Schema() }
func (s *Sort) Children() []Node    { return []Node{s.Child} }
func (s *Sort) WithChildren(c []Node) Node {
	cp := *s
	cp.Child = c[0]
	return &cp
}
func (s *Sort) OpName() string { return "Sort" }
func (s *Sort) Attrs(recurring bool) string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		var ks string
		if recurring {
			ks = k.CanonicalRecurring()
		} else {
			ks = k.Canonical()
		}
		if s.Desc[i] {
			ks += " desc"
		}
		parts[i] = ks
	}
	return "keys=[" + strings.Join(parts, ";") + "]"
}

// Output writes the child rowset to a target stream; it is the root of every
// job plan.
type Output struct {
	Target string
	Child  Node
}

// Spool materializes the child subexpression to stable storage while also
// streaming it to its parent — the paper's online-materialization operator
// with two consumers. Inserted by the optimizer's follow-up phase.
type Spool struct {
	Child Node
	// StrictSig identifies the materialized artifact; the optimizer encodes
	// it into the output path per the paper's architecture.
	StrictSig string
	Path      string
	// VC is the virtual cluster charged for the artifact's bytes.
	VC string
}

// ViewScan reads a previously materialized view instead of recomputing the
// common subexpression. Rows/Bytes carry the exact statistics observed when
// the view was built, which the optimizer feeds to the rest of the plan.
type ViewScan struct {
	StrictSig string
	// RecurringSig is the recurring signature of the replaced subexpression.
	// Signature computation returns the replaced subexpression's signatures
	// for a ViewScan, so every ancestor's signature is unchanged by the
	// rewrite — matching larger subexpressions and history recording keep
	// working above a reused view.
	RecurringSig string
	Path         string
	Out          data.Schema
	Rows         int64
	Bytes        int64
	// ReplacedOp names the root operator of the replaced subexpression, kept
	// for telemetry (e.g., the Figure 9 join analysis).
	ReplacedOp string
	// Fallback is the replaced subexpression, kept out-of-band so the
	// executor can transparently recompute it when the view artifact cannot
	// be read (reuse must never fail a job). It is deliberately NOT a child:
	// Children() excludes it, so signatures, plan formatting, and stage
	// construction are unchanged by carrying it.
	Fallback Node
}

func (s *Scan) Schema() data.Schema { return s.Out }
func (s *Scan) Children() []Node    { return nil }
func (s *Scan) WithChildren(c []Node) Node {
	cp := *s
	return &cp
}
func (s *Scan) OpName() string { return "Scan" }
func (s *Scan) Attrs(recurring bool) string {
	if recurring {
		return "ds=" + s.Dataset
	}
	return "ds=" + s.Dataset + ",guid=" + string(s.GUID)
}

func (f *Filter) Schema() data.Schema { return f.Child.Schema() }
func (f *Filter) Children() []Node    { return []Node{f.Child} }
func (f *Filter) WithChildren(c []Node) Node {
	cp := *f
	cp.Child = c[0]
	return &cp
}
func (f *Filter) OpName() string { return "Filter" }
func (f *Filter) Attrs(recurring bool) string {
	if recurring {
		return "pred=" + f.Pred.CanonicalRecurring()
	}
	return "pred=" + f.Pred.Canonical()
}

func (p *Project) Schema() data.Schema {
	out := make(data.Schema, len(p.Exprs))
	for i, e := range p.Exprs {
		out[i] = data.Column{Name: p.Names[i], Kind: e.Kind()}
	}
	return out
}
func (p *Project) Children() []Node { return []Node{p.Child} }
func (p *Project) WithChildren(c []Node) Node {
	cp := *p
	cp.Child = c[0]
	return &cp
}
func (p *Project) OpName() string { return "Project" }
func (p *Project) Attrs(recurring bool) string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		var s string
		if recurring {
			s = e.CanonicalRecurring()
		} else {
			s = e.Canonical()
		}
		parts[i] = strings.ToLower(p.Names[i]) + "<-" + s
	}
	return "exprs=[" + strings.Join(parts, ";") + "]"
}

func (j *Join) Schema() data.Schema {
	l, r := j.L.Schema(), j.R.Schema()
	out := make(data.Schema, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}
func (j *Join) Children() []Node { return []Node{j.L, j.R} }
func (j *Join) WithChildren(c []Node) Node {
	cp := *j
	cp.L, cp.R = c[0], c[1]
	return &cp
}
func (j *Join) OpName() string { return "Join" }
func (j *Join) Attrs(recurring bool) string {
	canon := func(e Expr) string {
		if recurring {
			return e.CanonicalRecurring()
		}
		return e.Canonical()
	}
	pairs := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		pairs[i] = canon(j.LeftKeys[i]) + "=" + canon(j.RightKeys[i])
	}
	// Key pairs are order-insensitive for matching purposes.
	sort.Strings(pairs)
	s := "keys=[" + strings.Join(pairs, ";") + "]"
	if j.Residual != nil {
		s += ",residual=" + canon(j.Residual)
	}
	return s
}

func (a *Aggregate) Schema() data.Schema {
	out := make(data.Schema, 0, len(a.GroupBy)+len(a.Aggs))
	for i, g := range a.GroupBy {
		out = append(out, data.Column{Name: a.GroupNames[i], Kind: g.Kind()})
	}
	for _, spec := range a.Aggs {
		out = append(out, data.Column{Name: spec.Name, Kind: aggResultKind(spec)})
	}
	return out
}

func aggResultKind(spec AggSpec) data.Kind {
	switch spec.Kind {
	case AggCount:
		return data.KindInt
	case AggAvg:
		return data.KindFloat
	case AggSum:
		if spec.Arg != nil && spec.Arg.Kind() == data.KindInt {
			return data.KindInt
		}
		return data.KindFloat
	default: // MIN/MAX follow the argument
		if spec.Arg != nil {
			return spec.Arg.Kind()
		}
		return data.KindNull
	}
}

func (a *Aggregate) Children() []Node { return []Node{a.Child} }
func (a *Aggregate) WithChildren(c []Node) Node {
	cp := *a
	cp.Child = c[0]
	return &cp
}
func (a *Aggregate) OpName() string { return "Aggregate" }
func (a *Aggregate) Attrs(recurring bool) string {
	canon := func(e Expr) string {
		if e == nil {
			return "*"
		}
		if recurring {
			return e.CanonicalRecurring()
		}
		return e.Canonical()
	}
	groups := make([]string, len(a.GroupBy))
	for i, g := range a.GroupBy {
		groups[i] = canon(g)
	}
	aggs := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		aggs[i] = s.Kind.String() + "(" + canon(s.Arg) + ")->" + strings.ToLower(s.Name)
	}
	return "groupby=[" + strings.Join(groups, ";") + "],aggs=[" + strings.Join(aggs, ";") + "]"
}

func (u *Union) Schema() data.Schema { return u.L.Schema() }
func (u *Union) Children() []Node    { return []Node{u.L, u.R} }
func (u *Union) WithChildren(c []Node) Node {
	cp := *u
	cp.L, cp.R = c[0], c[1]
	return &cp
}
func (u *Union) OpName() string              { return "Union" }
func (u *Union) Attrs(recurring bool) string { return "" }

func (u *UDO) Schema() data.Schema {
	if fn, ok := LookupUDO(u.Name); ok {
		return fn.OutSchema(u.Child.Schema())
	}
	return u.Child.Schema()
}
func (u *UDO) Children() []Node { return []Node{u.Child} }
func (u *UDO) WithChildren(c []Node) Node {
	cp := *u
	cp.Child = c[0]
	return &cp
}
func (u *UDO) OpName() string { return "UDO" }
func (u *UDO) Attrs(recurring bool) string {
	deps := append([]string(nil), u.Depends...)
	sort.Strings(deps)
	return fmt.Sprintf("udo=%s,deps=[%s],nondet=%t", u.Name, strings.Join(deps, ";"), u.Nondet)
}

func (s *Sample) Schema() data.Schema { return s.Child.Schema() }
func (s *Sample) Children() []Node    { return []Node{s.Child} }
func (s *Sample) WithChildren(c []Node) Node {
	cp := *s
	cp.Child = c[0]
	return &cp
}
func (s *Sample) OpName() string              { return "Sample" }
func (s *Sample) Attrs(recurring bool) string { return fmt.Sprintf("pct=%g", s.Percent) }

func (o *Output) Schema() data.Schema { return o.Child.Schema() }
func (o *Output) Children() []Node    { return []Node{o.Child} }
func (o *Output) WithChildren(c []Node) Node {
	cp := *o
	cp.Child = c[0]
	return &cp
}
func (o *Output) OpName() string { return "Output" }
func (o *Output) Attrs(recurring bool) string {
	if recurring {
		// Output targets often embed dates; treat as time-varying.
		return ""
	}
	return "target=" + o.Target
}

func (s *Spool) Schema() data.Schema { return s.Child.Schema() }
func (s *Spool) Children() []Node    { return []Node{s.Child} }
func (s *Spool) WithChildren(c []Node) Node {
	cp := *s
	cp.Child = c[0]
	return &cp
}
func (s *Spool) OpName() string              { return "Spool" }
func (s *Spool) Attrs(recurring bool) string { return "" } // transparent to signatures

func (v *ViewScan) Schema() data.Schema { return v.Out }
func (v *ViewScan) Children() []Node    { return nil }
func (v *ViewScan) WithChildren(c []Node) Node {
	cp := *v
	return &cp
}
func (v *ViewScan) OpName() string              { return "ViewScan" }
func (v *ViewScan) Attrs(recurring bool) string { return "view=" + v.StrictSig }

// Inputs returns n's input operators, left to right, without allocating: this
// package's operators have at most two, which land in buf. It is the read
// path of every traversal; Children, whose fresh slice a caller may overwrite
// and hand to WithChildren, is the rebuild path (and the fallback here).
func Inputs(n Node, buf *[2]Node) []Node {
	switch x := n.(type) {
	case *Scan, *ViewScan:
		return buf[:0]
	case *Filter:
		buf[0] = x.Child
	case *Project:
		buf[0] = x.Child
	case *Aggregate:
		buf[0] = x.Child
	case *UDO:
		buf[0] = x.Child
	case *Sample:
		buf[0] = x.Child
	case *Sort:
		buf[0] = x.Child
	case *Output:
		buf[0] = x.Child
	case *Spool:
		buf[0] = x.Child
	case *Join:
		buf[0], buf[1] = x.L, x.R
		return buf[:2]
	case *Union:
		buf[0], buf[1] = x.L, x.R
		return buf[:2]
	default:
		return n.Children()
	}
	return buf[:1]
}

// Exprs appends to buf the scalar expressions n itself holds — a filter's
// predicate, a projection's columns, a join's left keys, right keys and
// residual, an aggregate's group keys and aggregate arguments, a sort's keys —
// and returns it: a read passes a stack buffer, as with Inputs, and a caller
// that will write the list, or keep it, passes nil.
func Exprs(n Node, buf []Expr) []Expr {
	switch x := n.(type) {
	case *Filter:
		buf = append(buf, x.Pred)
	case *Project:
		buf = append(buf, x.Exprs...)
	case *Join:
		buf = append(append(slices.Grow(buf, 2*len(x.LeftKeys)+1), x.LeftKeys...), x.RightKeys...)
		if x.Residual != nil {
			buf = append(buf, x.Residual)
		}
	case *Aggregate:
		buf = append(slices.Grow(buf, len(x.GroupBy)+len(x.Aggs)), x.GroupBy...)
		for _, a := range x.Aggs {
			if a.Arg != nil {
				buf = append(buf, a.Arg)
			}
		}
	case *Sort:
		buf = append(buf, x.Keys...)
	}
	return buf
}

// WithExprs returns a shallow copy of n holding es, laid out as Exprs lays
// them out, in place of its own expressions. The copy keeps es.
func WithExprs(n Node, es []Expr) Node {
	switch x := n.(type) {
	case *Filter:
		cp := *x
		cp.Pred = es[0]
		return &cp
	case *Project:
		cp := *x
		cp.Exprs = es
		return &cp
	case *Join:
		cp := *x
		k := len(x.LeftKeys)
		cp.LeftKeys, cp.RightKeys = es[:k:k], es[k:2*k:2*k]
		if x.Residual != nil {
			cp.Residual = es[2*k]
		}
		return &cp
	case *Aggregate:
		cp := *x
		k := len(x.GroupBy)
		cp.GroupBy, es = es[:k:k], es[k:]
		cp.Aggs = append([]AggSpec(nil), x.Aggs...)
		for i := range cp.Aggs {
			if cp.Aggs[i].Arg != nil {
				cp.Aggs[i].Arg, es = es[0], es[1:]
			}
		}
		return &cp
	case *Sort:
		cp := *x
		cp.Keys = es
		return &cp
	}
	return n
}

// Walk visits n then its children depth-first, pre-order.
func Walk(n Node, fn func(Node)) {
	fn(n)
	var buf [2]Node
	for _, c := range Inputs(n, &buf) {
		Walk(c, fn)
	}
}

// Rewrite rebuilds the tree bottom-up, applying fn to every node after its
// children have been rewritten. fn may return the node unchanged.
func Rewrite(n Node, fn func(Node) Node) Node {
	children := n.Children()
	if len(children) > 0 {
		newChildren := make([]Node, len(children))
		changed := false
		for i, c := range children {
			newChildren[i] = Rewrite(c, fn)
			if newChildren[i] != c {
				changed = true
			}
		}
		if changed {
			n = n.WithChildren(newChildren)
		}
	}
	return fn(n)
}

// CountNodes returns the number of operators in the tree.
func CountNodes(n Node) int {
	count := 0
	Walk(n, func(Node) { count++ })
	return count
}

// Format renders an indented tree for display and golden tests.
func Format(n Node) string {
	var sb strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.OpName())
		if a := n.Attrs(false); a != "" {
			sb.WriteString("[" + a + "]")
		}
		sb.WriteString("\n")
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return sb.String()
}

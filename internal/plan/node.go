package plan

import (
	"fmt"
	"slices"
	"strings"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
)

// Node is a logical plan operator. AppendAttrs renders its attributes for
// signatures.
type Node interface {
	// Schema is the output schema of the operator.
	Schema() data.Schema
	// OpName is the stable operator name used in signatures and display.
	OpName() string
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
}

// JoinAlgo enumerates physical join implementations. A job's compile result
// picks one (optimizer.CompileResult.JoinAlgo); the logical plan holds none,
// as the paper reuses "the exact same logical query subexpressions, although
// they can have different physical implementations".
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
	// Out is the output schema, computed once by NewAggregate and shared by
	// every copy: Schema returns it, and nothing writes it.
	Out data.Schema
}

// NewAggregate returns the Aggregate of groupBy (named names) and aggs over
// child, its output schema computed. Every Aggregate is built by it, or copied
// from one that was.
func NewAggregate(groupBy []Expr, names []string, aggs []AggSpec, child Node) *Aggregate {
	out := make(data.Schema, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		out = append(out, data.Column{Name: names[i], Kind: g.Kind()})
	}
	for _, spec := range aggs {
		out = append(out, data.Column{Name: spec.Name, Kind: aggResultKind(spec)})
	}
	return &Aggregate{GroupBy: groupBy, GroupNames: names, Aggs: aggs, Child: child, Out: out}
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
	// Out is the output schema, the implementation's OutSchema of the
	// child's, derived once when the node is built.
	Out data.Schema
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
func (s *Sort) OpName() string      { return "Sort" }

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
	// be read (reuse must never fail a job). It is deliberately NOT an input:
	// Inputs excludes it, so signatures, plan formatting, and stage
	// construction are unchanged by carrying it.
	Fallback Node
}

func (s *Scan) Schema() data.Schema { return s.Out }
func (s *Scan) OpName() string      { return "Scan" }

func (f *Filter) Schema() data.Schema { return f.Child.Schema() }
func (f *Filter) OpName() string      { return "Filter" }

func (p *Project) Schema() data.Schema {
	out := make(data.Schema, len(p.Exprs))
	for i, e := range p.Exprs {
		out[i] = data.Column{Name: p.Names[i], Kind: e.Kind()}
	}
	return out
}
func (p *Project) OpName() string { return "Project" }

func (j *Join) Schema() data.Schema {
	l, r := j.L.Schema(), j.R.Schema()
	out := make(data.Schema, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}
func (j *Join) OpName() string { return "Join" }

func (a *Aggregate) Schema() data.Schema { return a.Out }

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

func (a *Aggregate) OpName() string { return "Aggregate" }

func (u *Union) Schema() data.Schema { return u.L.Schema() }
func (u *Union) OpName() string      { return "Union" }

func (u *UDO) Schema() data.Schema { return u.Out }
func (u *UDO) OpName() string      { return "UDO" }

func (s *Sample) Schema() data.Schema { return s.Child.Schema() }
func (s *Sample) OpName() string      { return "Sample" }

func (o *Output) Schema() data.Schema { return o.Child.Schema() }
func (o *Output) OpName() string      { return "Output" }

func (s *Spool) Schema() data.Schema { return s.Child.Schema() }
func (s *Spool) OpName() string      { return "Spool" }

func (v *ViewScan) Schema() data.Schema { return v.Out }
func (v *ViewScan) OpName() string      { return "ViewScan" }

// Inputs returns n's input operators, left to right, without allocating: an
// operator has at most two, which land in buf. It is how every traversal
// reads a node's inputs.
func Inputs(n Node, buf *[2]Node) []Node {
	switch x := n.(type) {
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
	default: // a leaf: Scan, ViewScan
		return buf[:0]
	}
	return buf[:1]
}

// WithInputs returns a shallow copy of n reading in, laid out as Inputs lays
// them out, in place of its own inputs. A leaf is copied too, so a CloneNode
// copy shares no operator with its original.
func WithInputs(n Node, in []Node) Node {
	switch x := n.(type) {
	case *Scan:
		cp := *x
		return &cp
	case *ViewScan:
		cp := *x
		return &cp
	case *Filter:
		cp := *x
		cp.Child = in[0]
		return &cp
	case *Project:
		cp := *x
		cp.Child = in[0]
		return &cp
	case *Aggregate:
		cp := *x
		cp.Child = in[0]
		return &cp
	case *UDO:
		cp := *x
		cp.Child = in[0]
		return &cp
	case *Sample:
		cp := *x
		cp.Child = in[0]
		return &cp
	case *Sort:
		cp := *x
		cp.Child = in[0]
		return &cp
	case *Output:
		cp := *x
		cp.Child = in[0]
		return &cp
	case *Spool:
		cp := *x
		cp.Child = in[0]
		return &cp
	case *Join:
		cp := *x
		cp.L, cp.R = in[0], in[1]
		return &cp
	case *Union:
		cp := *x
		cp.L, cp.R = in[0], in[1]
		return &cp
	}
	panic(fmt.Sprintf("plan: WithInputs of %T", n))
}

// MapInputs returns n with each input c replaced by fn(c): n itself when fn
// returns every input unchanged, else a WithInputs copy. fn is called once per
// input, left to right.
func MapInputs(n Node, fn func(Node) Node) Node {
	var buf, out [2]Node
	in := Inputs(n, &buf)
	changed := false
	for i, c := range in {
		out[i] = fn(c)
		changed = changed || out[i] != c
	}
	if !changed {
		return n
	}
	return WithInputs(n, out[:len(in)])
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
		k := len(x.GroupBy)
		groupBy, aggs := es[:k:k], append([]AggSpec(nil), x.Aggs...)
		es = es[k:]
		for i := range aggs {
			if aggs[i].Arg != nil {
				aggs[i].Arg, es = es[0], es[1:]
			}
		}
		return NewAggregate(groupBy, x.GroupNames, aggs, x.Child)
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
// children have been rewritten. fn may return the node unchanged; a node none
// of whose inputs changed is handed to fn as it is, not copied.
func Rewrite(n Node, fn func(Node) Node) Node {
	return fn(MapInputs(n, func(c Node) Node { return Rewrite(c, fn) }))
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
		if a := AppendAttrs(nil, n, false); len(a) > 0 {
			sb.WriteString("[" + string(a) + "]")
		}
		sb.WriteString("\n")
		var buf [2]Node
		for _, c := range Inputs(n, &buf) {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return sb.String()
}

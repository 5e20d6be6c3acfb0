// Package plan defines the logical query plan: typed scalar expressions bound
// to schemas, relational operator nodes, the binder that turns parsed scripts
// into plans, and the normalization pass that canonicalizes plans before
// signature computation. Signatures over normalized plans are what CloudViews
// matches for reuse, so canonical forms here directly determine reuse recall.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"cloudviews/internal/data"
)

// Expr is a bound scalar expression. Column references carry resolved indexes
// into the input row. AppendCanonical renders one for signatures.
type Expr interface {
	// Eval computes the expression over one input row. ctx supplies
	// evaluation-scoped state (the clock for NOW, the RNG for RANDOM).
	Eval(row data.Row, ctx *EvalContext) data.Value
	// Kind reports the static result type.
	Kind() data.Kind
	// Walk visits this node then all children.
	Walk(fn func(Expr))
}

// EvalContext carries evaluation-scoped state: the clock and RNG of the
// non-deterministic builtins, and the allocator of the rows UDOs emit.
type EvalContext struct {
	NowNanos int64
	Rand     *data.Rand
	guidSeq  int64
	// rows is created by the first UDO that needs it: most jobs run none, and
	// the context is allocated — and kept with the job's result — per job.
	rows *data.RowSlab
}

func (c *EvalContext) slab() *data.RowSlab {
	if c.rows == nil {
		c.rows = new(data.RowSlab)
	}
	return c.rows
}

// ExpectRows announces that about n rows will be cloned through CloneRow (see
// data.Slab.Expect for what an over-estimate costs); the executor calls it
// once per UDO with the input's row count.
func (c *EvalContext) ExpectRows(n int) { c.slab().Expect(n) }

// CloneRow returns a copy of r followed by extra NULL cells for the caller to
// fill. The copy is carved from the context's slab: a UDO that copies its
// input costs one allocation per batch, not per row. The result's capacity
// equals its length (an append reallocates, it never reaches a neighbouring
// row), so a UDO that adds columns asks for them here.
func (c *EvalContext) CloneRow(r data.Row, extra int) data.Row {
	out := c.slab().New(len(r) + extra)
	copy(out, r)
	return out
}

// ColRef references an input column by resolved index.
type ColRef struct {
	Index int
	Name  string // resolved, unqualified output name (for display)
	Typ   data.Kind
}

// Const is a literal constant.
type Const struct {
	Val data.Value
}

// Param is a bound query parameter. Strict signatures include the bound
// value; recurring signatures include only the name.
type Param struct {
	Name string
	Val  data.Value
}

// Binary is a binary operation. Op is one of + - * / % = != < <= > >= AND OR LIKE.
type Binary struct {
	Op   string
	L, R Expr
}

// Unary is NOT or unary minus.
type Unary struct {
	Op string
	E  Expr
}

// Call applies a builtin scalar function.
type Call struct {
	Name string
	Args []Expr
}

func (c *ColRef) Kind() data.Kind { return c.Typ }
func (c *Const) Kind() data.Kind  { return c.Val.Kind }
func (p *Param) Kind() data.Kind  { return p.Val.Kind }

func (b *Binary) Kind() data.Kind {
	switch b.Op {
	case "=", "!=", "<", "<=", ">", ">=", "AND", "OR", "LIKE":
		return data.KindBool
	case "/":
		return data.KindFloat
	default:
		lk, rk := b.L.Kind(), b.R.Kind()
		if lk == data.KindFloat || rk == data.KindFloat {
			return data.KindFloat
		}
		if lk == data.KindString || rk == data.KindString {
			return data.KindString // '+' concatenates when either side is string
		}
		return data.KindInt
	}
}

func (u *Unary) Kind() data.Kind {
	if u.Op == "NOT" {
		return data.KindBool
	}
	return u.E.Kind()
}

func (f *Call) Kind() data.Kind {
	if spec, ok := builtins[f.Name]; ok {
		return spec.result
	}
	return data.KindNull
}

func (c *ColRef) Eval(row data.Row, _ *EvalContext) data.Value {
	if c.Index < 0 || c.Index >= len(row) {
		return data.Null()
	}
	return row[c.Index]
}

func (c *Const) Eval(data.Row, *EvalContext) data.Value { return c.Val }
func (p *Param) Eval(data.Row, *EvalContext) data.Value { return p.Val }

func (b *Binary) Eval(row data.Row, ctx *EvalContext) data.Value {
	switch b.Op {
	case "AND":
		l := b.L.Eval(row, ctx)
		if l.Kind == data.KindBool && !l.B {
			return data.Bool(false)
		}
		r := b.R.Eval(row, ctx)
		return data.Bool(truthy(l) && truthy(r))
	case "OR":
		l := b.L.Eval(row, ctx)
		if l.Kind == data.KindBool && l.B {
			return data.Bool(true)
		}
		r := b.R.Eval(row, ctx)
		return data.Bool(truthy(l) || truthy(r))
	}
	l := b.L.Eval(row, ctx)
	r := b.R.Eval(row, ctx)
	switch b.Op {
	case "=":
		return data.Bool(!l.IsNull() && !r.IsNull() && l.Equal(r))
	case "!=":
		return data.Bool(!l.IsNull() && !r.IsNull() && !l.Equal(r))
	case "<":
		return data.Bool(!l.IsNull() && !r.IsNull() && l.Compare(r) < 0)
	case "<=":
		return data.Bool(!l.IsNull() && !r.IsNull() && l.Compare(r) <= 0)
	case ">":
		return data.Bool(!l.IsNull() && !r.IsNull() && l.Compare(r) > 0)
	case ">=":
		return data.Bool(!l.IsNull() && !r.IsNull() && l.Compare(r) >= 0)
	case "LIKE":
		return data.Bool(likeMatch(l.String(), r.String()))
	case "+":
		if l.Kind == data.KindString || r.Kind == data.KindString {
			return data.String_(l.String() + r.String())
		}
		if l.Kind == data.KindFloat || r.Kind == data.KindFloat {
			return data.Float(l.AsFloat() + r.AsFloat())
		}
		return data.Int(l.AsInt() + r.AsInt())
	case "-":
		if l.Kind == data.KindFloat || r.Kind == data.KindFloat {
			return data.Float(l.AsFloat() - r.AsFloat())
		}
		return data.Int(l.AsInt() - r.AsInt())
	case "*":
		if l.Kind == data.KindFloat || r.Kind == data.KindFloat {
			return data.Float(l.AsFloat() * r.AsFloat())
		}
		return data.Int(l.AsInt() * r.AsInt())
	case "/":
		d := r.AsFloat()
		if d == 0 {
			return data.Null()
		}
		return data.Float(l.AsFloat() / d)
	case "%":
		d := r.AsInt()
		if d == 0 {
			return data.Null()
		}
		return data.Int(l.AsInt() % d)
	default:
		return data.Null()
	}
}

func (u *Unary) Eval(row data.Row, ctx *EvalContext) data.Value {
	v := u.E.Eval(row, ctx)
	switch u.Op {
	case "NOT":
		return data.Bool(!truthy(v))
	case "-":
		if v.Kind == data.KindFloat {
			return data.Float(-v.F)
		}
		return data.Int(-v.AsInt())
	default:
		return data.Null()
	}
}

func truthy(v data.Value) bool { return v.Kind == data.KindBool && v.B }

// likeMatch implements SQL LIKE with % (any run) and _ (single char).
func likeMatch(s, pattern string) bool {
	// Dynamic-programming match, iterative to avoid recursion depth issues.
	n, m := len(s), len(pattern)
	prev := make([]bool, n+1)
	cur := make([]bool, n+1)
	prev[0] = true
	for j := 1; j <= m; j++ {
		cur[0] = prev[0] && pattern[j-1] == '%'
		for i := 1; i <= n; i++ {
			switch pattern[j-1] {
			case '%':
				cur[i] = cur[i-1] || prev[i]
			case '_':
				cur[i] = prev[i-1]
			default:
				cur[i] = prev[i-1] && s[i-1] == pattern[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// builtinSpec describes a registered scalar function.
type builtinSpec struct {
	result        data.Kind
	deterministic bool
	arity         int // -1 = variadic
	eval          func(args []data.Value, ctx *EvalContext) data.Value
}

// builtins registers the scalar functions supported by the dialect, including
// the non-deterministic ones the paper calls out as signature hazards
// (DateTime.Now → NOW, Guid.NewGuid → NEWGUID, Random().Next → RANDOM).
var builtins = map[string]builtinSpec{
	"YEAR": {data.KindInt, true, 1, func(a []data.Value, _ *EvalContext) data.Value {
		return data.Int(int64(a[0].AsTime().UTC().Year()))
	}},
	"MONTH": {data.KindInt, true, 1, func(a []data.Value, _ *EvalContext) data.Value {
		return data.Int(int64(a[0].AsTime().UTC().Month()))
	}},
	"DAY": {data.KindInt, true, 1, func(a []data.Value, _ *EvalContext) data.Value {
		return data.Int(int64(a[0].AsTime().UTC().Day()))
	}},
	"HOUR": {data.KindInt, true, 1, func(a []data.Value, _ *EvalContext) data.Value {
		return data.Int(int64(a[0].AsTime().UTC().Hour()))
	}},
	"LOWER": {data.KindString, true, 1, func(a []data.Value, _ *EvalContext) data.Value {
		return data.String_(strings.ToLower(a[0].String()))
	}},
	"UPPER": {data.KindString, true, 1, func(a []data.Value, _ *EvalContext) data.Value {
		return data.String_(strings.ToUpper(a[0].String()))
	}},
	"LEN": {data.KindInt, true, 1, func(a []data.Value, _ *EvalContext) data.Value {
		return data.Int(int64(len(a[0].String())))
	}},
	"ABS": {data.KindFloat, true, 1, func(a []data.Value, _ *EvalContext) data.Value {
		f := a[0].AsFloat()
		if f < 0 {
			f = -f
		}
		return data.Float(f)
	}},
	"ROUND": {data.KindInt, true, 1, func(a []data.Value, _ *EvalContext) data.Value {
		f := a[0].AsFloat()
		if f >= 0 {
			return data.Int(int64(f + 0.5))
		}
		return data.Int(int64(f - 0.5))
	}},
	"ISNULL": {data.KindBool, true, 1, func(a []data.Value, _ *EvalContext) data.Value {
		return data.Bool(a[0].IsNull())
	}},
	"COALESCE": {data.KindNull, true, -1, func(a []data.Value, _ *EvalContext) data.Value {
		for _, v := range a {
			if !v.IsNull() {
				return v
			}
		}
		return data.Null()
	}},
	"HASHBUCKET": {data.KindInt, true, 2, func(a []data.Value, _ *EvalContext) data.Value {
		n := a[1].AsInt()
		if n <= 0 {
			return data.Null()
		}
		return data.Int(int64(data.FNV64a(data.FNVOffset, a[0].String()) % uint64(n)))
	}},
	// Non-deterministic builtins.
	"NOW": {data.KindTime, false, 0, func(_ []data.Value, ctx *EvalContext) data.Value {
		return data.Value{Kind: data.KindTime, I: ctx.NowNanos}
	}},
	"UTCNOW": {data.KindTime, false, 0, func(_ []data.Value, ctx *EvalContext) data.Value {
		return data.Value{Kind: data.KindTime, I: ctx.NowNanos}
	}},
	"NEWGUID": {data.KindString, false, 0, func(_ []data.Value, ctx *EvalContext) data.Value {
		ctx.guidSeq++
		return data.String_(fmt.Sprintf("%016x-%08x", ctx.Rand.Uint64(), ctx.guidSeq))
	}},
	"RANDOM": {data.KindFloat, false, 0, func(_ []data.Value, ctx *EvalContext) data.Value {
		return data.Float(ctx.Rand.Float64())
	}},
}

// IsDeterministicFunc reports whether the named builtin is deterministic.
// Unknown functions are conservatively treated as non-deterministic, matching
// the paper's policy of skipping reuse when semantics are unclear.
func IsDeterministicFunc(name string) bool {
	spec, ok := builtins[strings.ToUpper(name)]
	return ok && spec.deterministic
}

// KnownFunc reports whether the builtin exists.
func KnownFunc(name string) bool {
	_, ok := builtins[strings.ToUpper(name)]
	return ok
}

func (f *Call) Eval(row data.Row, ctx *EvalContext) data.Value {
	spec, ok := builtins[f.Name]
	if !ok {
		return data.Null()
	}
	args := make([]data.Value, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.Eval(row, ctx)
	}
	if spec.arity >= 0 && len(args) != spec.arity {
		return data.Null()
	}
	if ctx == nil {
		ctx = &EvalContext{Rand: data.NewRand(1)}
	}
	return spec.eval(args, ctx)
}

func (c *ColRef) Walk(fn func(Expr)) { fn(c) }
func (c *Const) Walk(fn func(Expr))  { fn(c) }
func (p *Param) Walk(fn func(Expr))  { fn(p) }
func (b *Binary) Walk(fn func(Expr)) { fn(b); b.L.Walk(fn); b.R.Walk(fn) }
func (u *Unary) Walk(fn func(Expr))  { fn(u); u.E.Walk(fn) }
func (f *Call) Walk(fn func(Expr)) {
	fn(f)
	for _, a := range f.Args {
		a.Walk(fn)
	}
}

// HasNondeterminism reports whether the expression tree contains a
// non-deterministic function call, without allocating (a Walk closure would).
func HasNondeterminism(e Expr) bool {
	switch x := e.(type) {
	case *Binary:
		return HasNondeterminism(x.L) || HasNondeterminism(x.R)
	case *Unary:
		return HasNondeterminism(x.E)
	case *Call:
		return !IsDeterministicFunc(x.Name) || slices.ContainsFunc(x.Args, HasNondeterminism)
	}
	return false
}

// RemapColumns rewrites every ColRef index through the mapping (old index →
// new index). It returns a deep copy; the input is not mutated. Indexes
// absent from the map are preserved.
func RemapColumns(e Expr, mapping map[int]int) Expr {
	switch x := e.(type) {
	case *ColRef:
		idx := x.Index
		if ni, ok := mapping[idx]; ok {
			idx = ni
		}
		return &ColRef{Index: idx, Name: x.Name, Typ: x.Typ}
	case *Const:
		return &Const{Val: x.Val}
	case *Param:
		return &Param{Name: x.Name, Val: x.Val}
	case *Binary:
		return &Binary{Op: x.Op, L: RemapColumns(x.L, mapping), R: RemapColumns(x.R, mapping)}
	case *Unary:
		return &Unary{Op: x.Op, E: RemapColumns(x.E, mapping)}
	case *Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = RemapColumns(a, mapping)
		}
		return &Call{Name: x.Name, Args: args}
	default:
		return e
	}
}

// CloneExpr deep-copies an expression tree.
func CloneExpr(e Expr) Expr { return RemapColumns(e, nil) }

// ColumnsUsed returns the set of input column indexes referenced.
func ColumnsUsed(e Expr) map[int]bool {
	out := make(map[int]bool)
	e.Walk(func(x Expr) {
		if c, ok := x.(*ColRef); ok {
			out[c.Index] = true
		}
	})
	return out
}

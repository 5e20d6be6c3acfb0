// Vectorized expression evaluation: typed column vectors, a small expression
// compiler, and window-at-a-time kernels. The contract with the row loops in
// exec.go is BIT-IDENTICAL results: every kernel reproduces the exact
// Value semantics of plan.Binary/Unary.Eval (float-compare ordering for all
// numerics, exact int equality for same-kind ints, NULL comparisons yielding
// false, NULL-as-zero arithmetic, Float-or-NULL division). Anything outside
// kernel coverage — Calls (including all nondeterministic builtins, whose
// PRNG consumption order must match the row path), LIKE, string arithmetic
// beyond concatenation, NULL constants, or columns whose cells don't match
// their declared schema kind — makes compilation fail and the operator falls
// back to the row path, preserving correctness by construction.
package exec

import (
	"math"
	"sync"

	"cloudviews/internal/data"
	"cloudviews/internal/plan"
)

// batchSize is the number of rows a kernel processes per call. 1024 keeps a
// window's working set (a few KB per column) inside L1/L2 while amortizing
// per-batch overhead to noise.
const batchSize = 1024

// vcol is a typed column vector. Exactly one payload slice is populated,
// selected by kind (ints doubles for KindTime). null, when non-nil, marks
// rows whose logical value is NULL (produced only by the division and modulo
// kernels); masked rows have their payload slot zeroed so that downstream
// AsFloat/AsInt-style reads see 0, exactly like Value.AsFloat on NULL.
type vcol struct {
	kind data.Kind
	ints []int64
	fs   []float64
	ss   []string
	bs   []bool
	null []bool
}

// value reconstructs the data.Value at index i (used when materializing
// kernel output back into rows).
func (c *vcol) value(i int) data.Value {
	if c.null != nil && c.null[i] {
		return data.Value{}
	}
	switch c.kind {
	case data.KindInt, data.KindTime:
		return data.Value{Kind: c.kind, I: c.ints[i]}
	case data.KindFloat:
		return data.Value{Kind: data.KindFloat, F: c.fs[i]}
	case data.KindString:
		return data.Value{Kind: data.KindString, S: c.ss[i]}
	case data.KindBool:
		return data.Value{Kind: data.KindBool, B: c.bs[i]}
	default:
		return data.Value{}
	}
}

// floats returns a float64 view of the first n entries with Value.AsFloat
// semantics, converted into scratch (a window) unless c is float64.
func (c *vcol) floats(scratch []float64, n int) []float64 {
	switch c.kind {
	case data.KindFloat:
		return c.fs[:n]
	case data.KindInt, data.KindTime:
		s := scratch[:n]
		for i := 0; i < n; i++ {
			s[i] = float64(c.ints[i])
		}
		return s
	case data.KindBool:
		s := scratch[:n]
		for i := 0; i < n; i++ {
			if c.bs[i] {
				s[i] = 1
			} else {
				s[i] = 0
			}
		}
		return s
	}
	return scratch[:0]
}

// intsView returns an int64 view of the first n entries with Value.AsInt
// semantics, converted into scratch (a window) unless c is int64.
func (c *vcol) intsView(scratch []int64, n int) []int64 {
	switch c.kind {
	case data.KindInt, data.KindTime:
		return c.ints[:n]
	case data.KindFloat:
		s := scratch[:n]
		for i := 0; i < n; i++ {
			s[i] = int64(c.fs[i])
		}
		return s
	case data.KindBool:
		s := scratch[:n]
		for i := 0; i < n; i++ {
			if c.bs[i] {
				s[i] = 1
			} else {
				s[i] = 0
			}
		}
		return s
	}
	return scratch[:0]
}

// window is one pooled kernel buffer, with its link in the list of windows
// the borrowing operator gives back when it returns.
type window[T any] struct {
	v    [batchSize]T
	next *window[T]
}

// windowPool recycles the windows of one element type. An operator allocates
// the table it returns and borrows everything else: gather buffers, the rows
// behind a window of positions, kernel outputs, float/int views, constant
// broadcasts and NULL masks are all windows, borrowed while the operator
// compiles and given back when its function (vecFilter, vecProject,
// vecJoinKeys, vecAggregate, vecSort) returns. That is sound because nothing an operator returns aliases a vcol:
// rows are built from vcol.value copies, vecSort copies its keys with
// appendVcol, keyPacker.flush mints its own strings. A window is not zeroed
// on reuse; every kernel writes [0, n) of its output and mask before anything
// reads them.
type windowPool[T any] struct {
	free   sync.Pool
	poison T
}

var (
	int64Windows  = windowPool[int64]{poison: -1}
	floatWindows  = windowPool[float64]{poison: math.NaN()}
	stringWindows = windowPool[string]{poison: "\x00poison"}
	boolWindows   = windowPool[bool]{poison: true}
	rowWindows    = windowPool[data.Row]{}
)

// poisonReleased makes every buffer that goes back to a pool be overwritten
// with sentinels first, so a returned table that aliased one reads garbage.
// Set only by tests, before any executor runs.
var poisonReleased bool

// borrow takes a window and links it into list.
func (p *windowPool[T]) borrow(list **window[T]) []T {
	w, _ := p.free.Get().(*window[T])
	if w == nil {
		w = new(window[T])
	}
	w.next, *list = *list, w
	return w.v[:]
}

// giveBack returns every window of list to the pool, wiped when the elements
// hold pointers: a pooled window must not pin a table's strings.
func (p *windowPool[T]) giveBack(list **window[T], wipe bool) {
	for w := *list; w != nil; {
		next := w.next
		if poisonReleased {
			fill(w.v[:], p.poison)
		} else if wipe {
			clear(w.v[:])
		}
		w.next = nil
		p.free.Put(w)
		w = next
	}
	*list = nil
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// borrowed is the windows one operator invocation holds.
type borrowed struct {
	ints *window[int64]
	fs   *window[float64]
	ss   *window[string]
	bs   *window[bool]
	rs   *window[data.Row]
}

func (b *borrowed) int64s() []int64     { return int64Windows.borrow(&b.ints) }
func (b *borrowed) float64s() []float64 { return floatWindows.borrow(&b.fs) }
func (b *borrowed) strings() []string   { return stringWindows.borrow(&b.ss) }
func (b *borrowed) bools() []bool       { return boolWindows.borrow(&b.bs) }

// release gives every window back. Nothing compiled against b may run after.
func (b *borrowed) release() {
	int64Windows.giveBack(&b.ints, false)
	floatWindows.giveBack(&b.fs, false)
	stringWindows.giveBack(&b.ss, true)
	boolWindows.giveBack(&b.bs, false)
	rowWindows.giveBack(&b.rs, true)
}

// inputCols reads an operator's input — a table, a selection or pairs, whose
// columns are the left row's then the right row's — as typed columns, one
// window at a time, and holds every window the operator compiled against it
// borrows. Columns no expression references are never read: kernels cannot
// see them, and operators that keep input rows pass them through by reference.
type inputCols struct {
	r      nodeResult
	n      int           // the input's rows
	cols   []inputCol    // cols[j].kind stays KindNull until a ColRef compiles against column j
	sides  [2][]data.Row // under positions, each table's rows behind window sideLo
	sideLo [2]int
	borrowed
	gathers int // windows gathered so far, over all columns
}

// inputCol is one referenced column, cell at of its side's rows (0 the left
// or only table, 1 a pair's right): a borrowed window holding rows
// [lo, lo+batchSize) of it (lo < 0 before the first gather).
type inputCol struct {
	vcol
	lo, side, at int
}

func newInputCols(r nodeResult) *inputCols {
	width := len(r.table.Schema)
	if r.shape == pairs {
		width += len(r.right.Schema)
	}
	return &inputCols{r: r, n: r.len(), cols: make([]inputCol, width)}
}

// rows returns table side's rows behind the input's rows [lo, lo+n), under
// positions a borrowed window filled once however many columns gather from it.
func (in *inputCols) rows(side, lo, n int) []data.Row {
	t := [2]*data.Table{in.r.table, in.r.right}[side]
	if in.r.shape == rowsShape {
		return t.Rows[lo : lo+n]
	}
	if in.sides[side] == nil {
		in.sides[side], in.sideLo[side] = rowWindows.borrow(&in.rs), -1
	}
	if in.sideLo[side] != lo {
		in.sideLo[side] = lo
		pos, step := in.r.pos[lo:], 1
		if in.r.shape == pairs {
			pos, step = in.r.pos[2*lo+side:], 2
		}
		for i := range n {
			in.sides[side][i] = t.Rows[pos[i*step]]
		}
	}
	return in.sides[side][:n]
}

// col validates column j on first use and borrows its window. ok=false (fall
// back to the row path) when a row's length differs from its table's schema
// or a cell's runtime kind differs from the declared schema kind — which also
// covers NULL cells, so kernels never see NULL inputs except through their own
// null masks. The check reads the input's rows alone and writes nothing, so an
// operator that declines has consumed nothing.
func (in *inputCols) col(j int) (*inputCol, bool) {
	if j < 0 || j >= len(in.cols) {
		return nil, false
	}
	c := &in.cols[j]
	if c.kind != data.KindNull {
		return c, true
	}
	t := in.r.table
	c.at = j
	if j >= len(t.Schema) {
		t, c.side, c.at = in.r.right, 1, j-len(t.Schema)
	}
	kind := t.Schema[c.at].Kind
	switch kind {
	case data.KindInt, data.KindTime:
		c.ints = in.int64s()
	case data.KindFloat:
		c.fs = in.float64s()
	case data.KindString:
		c.ss = in.strings()
	case data.KindBool:
		c.bs = in.bools()
	default:
		return nil, false
	}
	for lo := 0; lo < in.n; lo += batchSize {
		for _, row := range in.rows(c.side, lo, min(batchSize, in.n-lo)) {
			if len(row) != len(t.Schema) || row[c.at].Kind != kind {
				return nil, false
			}
		}
	}
	c.kind, c.lo = kind, -1
	return c, true
}

// gather fills column j's window with rows [lo, lo+n), once per window
// however many expressions of the operator reference the column.
func (in *inputCols) gather(j, lo, n int) {
	c := &in.cols[j]
	if c.lo == lo {
		return
	}
	c.lo = lo
	in.gathers++
	rows, at := in.rows(c.side, lo, n), c.at
	switch c.kind {
	case data.KindInt, data.KindTime:
		for i, row := range rows {
			c.ints[i] = row[at].I
		}
	case data.KindFloat:
		for i, row := range rows {
			c.fs[i] = row[at].F
		}
	case data.KindString:
		for i, row := range rows {
			c.ss[i] = row[at].S
		}
	case data.KindBool:
		for i, row := range rows {
			c.bs[i] = row[at].B
		}
	}
}

// vnode is one compiled expression node. run fills out[0:n] for the window
// starting at absolute row lo; kids have already run for the same window.
type vnode struct {
	out vcol
	run func(lo, n int) // nil for constants (out prefilled at compile)
}

// vecProg is a compiled expression: nodes in post-order (kids before
// parents) over a fixed set of input columns.
type vecProg struct {
	nodes []*vnode
	root  *vnode
}

// eval runs the program for the window [lo, lo+n) and returns the root's
// output column (valid until the next eval).
func (p *vecProg) eval(lo, n int) *vcol {
	for _, nd := range p.nodes {
		if nd.run != nil {
			nd.run(lo, n)
		}
	}
	return &p.root.out
}

type vecCompiler struct {
	in    *inputCols
	nodes []*vnode
}

// compileVec compiles e against the input columns, validating the ones it
// references and borrowing every buffer through in. ok=false means the
// expression or a referenced column is outside kernel coverage and the caller
// must use the row path.
func compileVec(e plan.Expr, in *inputCols) (*vecProg, bool) {
	vc := &vecCompiler{in: in}
	root, ok := vc.compile(e)
	if !ok {
		return nil, false
	}
	return &vecProg{nodes: vc.nodes, root: root}, true
}

func (vc *vecCompiler) add(n *vnode) *vnode {
	vc.nodes = append(vc.nodes, n)
	return n
}

func (vc *vecCompiler) compile(e plan.Expr) (*vnode, bool) {
	switch x := e.(type) {
	case *plan.ColRef:
		in, j := vc.in, x.Index
		src, ok := in.col(j)
		if !ok {
			return nil, false
		}
		return vc.add(&vnode{out: src.vcol, run: func(lo, n int) { in.gather(j, lo, n) }}), true

	case *plan.Const:
		return vc.compileConst(x.Val)
	case *plan.Param:
		return vc.compileConst(x.Val)
	case *plan.Binary:
		return vc.compileBinary(x)
	case *plan.Unary:
		return vc.compileUnary(x)
	default:
		// Calls (and any future node) fall back: builtins may allocate, and
		// the nondeterministic ones consume per-job PRNG state in row order.
		return nil, false
	}
}

func (vc *vecCompiler) compileConst(v data.Value) (*vnode, bool) {
	if v.IsNull() {
		return nil, false
	}
	nd := &vnode{}
	nd.out.kind = v.Kind
	// No window is taller than the table, so the broadcast stops there.
	w := min(batchSize, vc.in.n)
	switch v.Kind {
	case data.KindInt, data.KindTime:
		nd.out.ints = vc.in.int64s()
		fill(nd.out.ints[:w], v.I)
	case data.KindFloat:
		nd.out.fs = vc.in.float64s()
		fill(nd.out.fs[:w], v.F)
	case data.KindString:
		nd.out.ss = vc.in.strings()
		fill(nd.out.ss[:w], v.S)
	case data.KindBool:
		nd.out.bs = vc.in.bools()
		fill(nd.out.bs[:w], v.B)
	default:
		return nil, false
	}
	return vc.add(nd), true
}

func isNumericKind(k data.Kind) bool {
	return k == data.KindInt || k == data.KindFloat || k == data.KindTime || k == data.KindBool
}

// applyNullGuard forces out[i]=false wherever an operand is masked,
// reproducing `!l.IsNull() && !r.IsNull() && …` comparison semantics.
func applyNullGuard(l, r *vcol, out []bool, n int) {
	if l.null != nil {
		for i := 0; i < n; i++ {
			if l.null[i] {
				out[i] = false
			}
		}
	}
	if r.null != nil {
		for i := 0; i < n; i++ {
			if r.null[i] {
				out[i] = false
			}
		}
	}
}

func (vc *vecCompiler) compileBinary(x *plan.Binary) (*vnode, bool) {
	l, ok := vc.compile(x.L)
	if !ok {
		return nil, false
	}
	r, ok := vc.compile(x.R)
	if !ok {
		return nil, false
	}
	lk, rk := l.out.kind, r.out.kind
	nd := &vnode{}

	switch x.Op {
	case "AND", "OR":
		// Eager evaluation of both sides is observationally identical to the
		// row path's short-circuit because Calls never compile (kernels are
		// side-effect-free), and truthy() on the guaranteed-Bool operands is
		// just the bool payload.
		if lk != data.KindBool || rk != data.KindBool {
			return nil, false
		}
		nd.out.kind = data.KindBool
		nd.out.bs = vc.in.bools()
		and := x.Op == "AND"
		nd.run = func(lo, n int) {
			lb, rb := l.out.bs, r.out.bs
			out := nd.out.bs
			if and {
				for i := 0; i < n; i++ {
					out[i] = lb[i] && rb[i]
				}
			} else {
				for i := 0; i < n; i++ {
					out[i] = lb[i] || rb[i]
				}
			}
		}
		return vc.add(nd), true

	case "=", "!=":
		nd.out.kind = data.KindBool
		nd.out.bs = vc.in.bools()
		neg := x.Op == "!="
		switch {
		case lk == data.KindString && rk == data.KindString:
			nd.run = func(lo, n int) {
				ls, rs, out := l.out.ss, r.out.ss, nd.out.bs
				for i := 0; i < n; i++ {
					out[i] = (ls[i] == rs[i]) != neg
				}
				applyNullGuard(&l.out, &r.out, out, n)
			}
		case lk == rk && (lk == data.KindInt || lk == data.KindTime):
			// Same-kind integer equality is exact (Value.Equal compares I
			// directly, no float round-trip).
			nd.run = func(lo, n int) {
				li, ri, out := l.out.ints, r.out.ints, nd.out.bs
				for i := 0; i < n; i++ {
					out[i] = (li[i] == ri[i]) != neg
				}
				applyNullGuard(&l.out, &r.out, out, n)
			}
		case lk == data.KindBool && rk == data.KindBool:
			nd.run = func(lo, n int) {
				lb, rb, out := l.out.bs, r.out.bs, nd.out.bs
				for i := 0; i < n; i++ {
					out[i] = (lb[i] == rb[i]) != neg
				}
				applyNullGuard(&l.out, &r.out, out, n)
			}
		case isNumericKind(lk) && isNumericKind(rk):
			// Cross-kind (and float) equality goes through AsFloat, exactly
			// like Value.Equal's numeric branch.
			sl, sr := vc.in.float64s(), vc.in.float64s()
			nd.run = func(lo, n int) {
				lf := l.out.floats(sl, n)
				rf := r.out.floats(sr, n)
				out := nd.out.bs
				for i := 0; i < n; i++ {
					out[i] = (lf[i] == rf[i]) != neg
				}
				applyNullGuard(&l.out, &r.out, out, n)
			}
		default:
			return nil, false
		}
		return vc.add(nd), true

	case "<", "<=", ">", ">=":
		nd.out.kind = data.KindBool
		nd.out.bs = vc.in.bools()
		op := x.Op
		switch {
		case lk == data.KindString && rk == data.KindString:
			nd.run = func(lo, n int) {
				ls, rs, out := l.out.ss, r.out.ss, nd.out.bs
				switch op {
				case "<":
					for i := 0; i < n; i++ {
						out[i] = ls[i] < rs[i]
					}
				case "<=":
					for i := 0; i < n; i++ {
						out[i] = ls[i] <= rs[i]
					}
				case ">":
					for i := 0; i < n; i++ {
						out[i] = ls[i] > rs[i]
					}
				case ">=":
					for i := 0; i < n; i++ {
						out[i] = ls[i] >= rs[i]
					}
				}
				applyNullGuard(&l.out, &r.out, out, n)
			}
		case isNumericKind(lk) && isNumericKind(rk):
			// Value.Compare orders ALL numerics (ints included) via AsFloat,
			// so ordering is always the float comparison.
			sl, sr := vc.in.float64s(), vc.in.float64s()
			nd.run = func(lo, n int) {
				lf := l.out.floats(sl, n)
				rf := r.out.floats(sr, n)
				out := nd.out.bs
				switch op {
				case "<":
					for i := 0; i < n; i++ {
						out[i] = lf[i] < rf[i]
					}
				case "<=":
					for i := 0; i < n; i++ {
						out[i] = lf[i] <= rf[i]
					}
				case ">":
					for i := 0; i < n; i++ {
						out[i] = lf[i] > rf[i]
					}
				case ">=":
					for i := 0; i < n; i++ {
						out[i] = lf[i] >= rf[i]
					}
				}
				applyNullGuard(&l.out, &r.out, out, n)
			}
		default:
			return nil, false
		}
		return vc.add(nd), true

	case "+", "-", "*":
		// Row-path arithmetic branches on RUNTIME kinds, so a masked operand
		// (runtime NULL from a nested division/modulo) flips the result kind
		// on exactly those rows (Float static + NULL runtime → Int branch).
		// Kernels are statically typed — bail if either operand can be NULL.
		if l.out.null != nil || r.out.null != nil {
			return nil, false
		}
		if lk == data.KindString || rk == data.KindString {
			// Row semantics: "+" with ANY string operand concatenates the
			// String() renderings. Kernels support the string+string case;
			// mixed stringification falls back.
			if x.Op != "+" || lk != data.KindString || rk != data.KindString {
				return nil, false
			}
			nd.out.kind = data.KindString
			nd.out.ss = vc.in.strings()
			nd.run = func(lo, n int) {
				ls, rs, out := l.out.ss, r.out.ss, nd.out.ss
				for i := 0; i < n; i++ {
					out[i] = ls[i] + rs[i]
				}
			}
			return vc.add(nd), true
		}
		if !isNumericKind(lk) || !isNumericKind(rk) {
			return nil, false
		}
		op := x.Op
		if lk == data.KindFloat || rk == data.KindFloat {
			nd.out.kind = data.KindFloat
			nd.out.fs = vc.in.float64s()
			sl, sr := vc.in.float64s(), vc.in.float64s()
			nd.run = func(lo, n int) {
				lf := l.out.floats(sl, n)
				rf := r.out.floats(sr, n)
				out := nd.out.fs
				switch op {
				case "+":
					for i := 0; i < n; i++ {
						out[i] = lf[i] + rf[i]
					}
				case "-":
					for i := 0; i < n; i++ {
						out[i] = lf[i] - rf[i]
					}
				case "*":
					for i := 0; i < n; i++ {
						out[i] = lf[i] * rf[i]
					}
				}
			}
			return vc.add(nd), true
		}
		nd.out.kind = data.KindInt
		nd.out.ints = vc.in.int64s()
		sl, sr := vc.in.int64s(), vc.in.int64s()
		nd.run = func(lo, n int) {
			li := l.out.intsView(sl, n)
			ri := r.out.intsView(sr, n)
			out := nd.out.ints
			switch op {
			case "+":
				for i := 0; i < n; i++ {
					out[i] = li[i] + ri[i]
				}
			case "-":
				for i := 0; i < n; i++ {
					out[i] = li[i] - ri[i]
				}
			case "*":
				for i := 0; i < n; i++ {
					out[i] = li[i] * ri[i]
				}
			}
		}
		return vc.add(nd), true

	case "/":
		if !isNumericKind(lk) || !isNumericKind(rk) {
			return nil, false
		}
		nd.out.kind = data.KindFloat
		nd.out.fs = vc.in.float64s()
		nd.out.null = vc.in.bools()
		sl, sr := vc.in.float64s(), vc.in.float64s()
		nd.run = func(lo, n int) {
			lf := l.out.floats(sl, n)
			rf := r.out.floats(sr, n)
			out, mask := nd.out.fs, nd.out.null
			for i := 0; i < n; i++ {
				// A masked divisor reads 0 (AsFloat on NULL), so NULL
				// divisors yield NULL exactly like the row path.
				if rf[i] == 0 {
					out[i], mask[i] = 0, true
				} else {
					out[i], mask[i] = lf[i]/rf[i], false
				}
			}
		}
		return vc.add(nd), true

	case "%":
		if !isNumericKind(lk) || !isNumericKind(rk) {
			return nil, false
		}
		nd.out.kind = data.KindInt
		nd.out.ints = vc.in.int64s()
		nd.out.null = vc.in.bools()
		sl, sr := vc.in.int64s(), vc.in.int64s()
		nd.run = func(lo, n int) {
			li := l.out.intsView(sl, n)
			ri := r.out.intsView(sr, n)
			out, mask := nd.out.ints, nd.out.null
			for i := 0; i < n; i++ {
				if ri[i] == 0 {
					out[i], mask[i] = 0, true
				} else {
					out[i], mask[i] = li[i]%ri[i], false
				}
			}
		}
		return vc.add(nd), true

	default:
		// LIKE and anything unrecognized (which the row path maps to NULL)
		// fall back.
		return nil, false
	}
}

func (vc *vecCompiler) compileUnary(x *plan.Unary) (*vnode, bool) {
	kid, ok := vc.compile(x.E)
	if !ok {
		return nil, false
	}
	nd := &vnode{}
	switch x.Op {
	case "NOT":
		if kid.out.kind != data.KindBool {
			return nil, false
		}
		nd.out.kind = data.KindBool
		nd.out.bs = vc.in.bools()
		nd.run = func(lo, n int) {
			kb, out := kid.out.bs, nd.out.bs
			for i := 0; i < n; i++ {
				out[i] = !kb[i]
			}
		}
		return vc.add(nd), true
	case "-":
		// Same runtime-kind branching hazard as binary arithmetic: a NULL
		// operand negates to Int(0) on the row path regardless of static
		// kind, so maskable kids fall back.
		if kid.out.null != nil {
			return nil, false
		}
		if kid.out.kind == data.KindFloat {
			nd.out.kind = data.KindFloat
			nd.out.fs = vc.in.float64s()
			nd.run = func(lo, n int) {
				kf, out := kid.out.fs, nd.out.fs
				for i := 0; i < n; i++ {
					out[i] = -kf[i]
				}
			}
			return vc.add(nd), true
		}
		if !isNumericKind(kid.out.kind) {
			return nil, false
		}
		nd.out.kind = data.KindInt
		nd.out.ints = vc.in.int64s()
		scratch := vc.in.int64s()
		nd.run = func(lo, n int) {
			ki := kid.out.intsView(scratch, n)
			out := nd.out.ints
			for i := 0; i < n; i++ {
				out[i] = -ki[i]
			}
		}
		return vc.add(nd), true
	default:
		return nil, false
	}
}

// Vectorized expression evaluation: typed column vectors, a small expression
// compiler, and window-at-a-time kernels for Filter, Project, Aggregate and
// join keys. The contract with the row loops in exec.go is BIT-IDENTICAL
// results: every kernel reproduces the exact Value semantics of
// plan.Binary.Eval (float-compare ordering for all numerics, exact int
// equality for same-kind ints, NULL comparisons yielding false, NULL for a
// zero modulus). The kernels cover the arms the workloads execute: column
// refs, constants and params, AND, = and != on strings or same-kind ints, the
// orderings on numerics, and % on ints. Everything else — Calls (whose PRNG
// consumption order must match the row path), unary operators, OR,
// arithmetic, LIKE, NULL constants, or columns whose cells don't match their
// declared schema kind — makes compilation fail and the operator runs on its
// row loop, which computes the same answer. An arm joins the kernels with the
// workload that runs it.
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
// rows whose logical value is NULL (produced only by the modulo kernel);
// masked rows have their payload slot zeroed so that downstream reads see 0,
// exactly like Value.AsInt and Value.AsFloat on NULL.
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

// floats returns a float64 view of the first n entries of an int, time or
// float column with Value.AsFloat semantics, converted into scratch (a
// window) unless c is float64.
func (c *vcol) floats(scratch []float64, n int) []float64 {
	if c.kind == data.KindFloat {
		return c.fs[:n]
	}
	s := scratch[:n]
	for i, v := range c.ints[:n] {
		s[i] = float64(v)
	}
	return s
}

// windows lends the kernel windows of one element type. An operator allocates
// the table it returns and borrows everything else: gather buffers, the rows
// behind a window of positions, kernel outputs, float views, constant
// broadcasts and NULL masks are all windows, borrowed while the operator
// compiles and given back when its function (vecFilter, vecProject,
// vecJoinKeys, vecAggregate) returns. That is sound because nothing an
// operator returns aliases a vcol: rows are built from vcol.value copies and
// keyPacker.flush mints its own strings. A window is not zeroed on reuse;
// every kernel writes [0, n) of its output and mask before anything reads it.
type windows[T any] struct {
	all  []*[batchSize]T
	lent int // all[:lent] are out
}

// poisonReleased, set only by tests before any executor runs, overwrites every
// buffer given back with sentinels, so a table that aliased one reads garbage.
var poisonReleased bool

// borrow lends the next window, making one when every window is out.
func (w *windows[T]) borrow() []T {
	if w.lent == len(w.all) {
		w.all = append(w.all, new([batchSize]T))
	}
	w.lent++
	return w.all[w.lent-1][:]
}

// giveBack takes every lent window back, overwritten with poison under tests,
// else wiped when wipe is set: a kept window must not pin a table's strings.
func (w *windows[T]) giveBack(poison T, wipe bool) {
	for _, b := range w.all[:w.lent] {
		if poisonReleased {
			fill(b[:], poison)
		} else if wipe {
			clear(b[:])
		}
	}
	w.lent = 0
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// scratch is every buffer that outlives an operator, and a run holds one from
// its first borrow until Run returns. One is enough: at any moment one operator
// holds windows and its compiled programs, one join its scratch and one
// aggregate its group table, because each evaluates its inputs before it
// borrows.
type scratch struct {
	ints  windows[int64]
	fs    windows[float64]
	ss    windows[string]
	bs    windows[bool]
	rs    windows[data.Row]
	in    inputCols
	join  joinScratch
	group groupScratch
}

// scratches is the free list of scratches, at most 64, newest last so that a
// run takes the one the last run warmed. A collection does not empty it as it
// would a sync.Pool, so what a warm run allocates does not depend on the GC.
var scratches struct {
	sync.Mutex
	free []*scratch
}

// scratch is the run's scratch, taken from the free list on first use.
func (ex *Executor) scratch() *scratch {
	if ex.s == nil {
		scratches.Lock()
		if n := len(scratches.free); n > 0 {
			ex.s, scratches.free = scratches.free[n-1], scratches.free[:n-1]
		} else {
			ex.s = new(scratch)
		}
		scratches.Unlock()
	}
	return ex.s
}

// giveBackScratch returns the run's scratch, if it took one, to the free list.
func (ex *Executor) giveBackScratch() {
	if ex.s != nil {
		scratches.Lock()
		if len(scratches.free) < 64 {
			scratches.free = append(scratches.free, ex.s)
		}
		scratches.Unlock()
		ex.s = nil
	}
}

// inputCols reads an operator's input — a table, a selection or pairs, whose
// columns are the left row's then the right row's — as typed columns, one
// window at a time, and holds the programs the operator compiled against it.
// It lives in the run's scratch, and every window and slice it holds is the
// scratch's, borrowed until release. Columns no expression references are
// never read: kernels cannot see them, and operators that keep input rows pass
// them through by reference.
type inputCols struct {
	r       nodeResult
	n       int           // the input's rows
	cols    []inputCol    // cols[j].kind stays KindNull until a ColRef compiles against column j
	sides   [2][]data.Row // under positions, each table's rows behind window sideLo
	sideLo  [2]int
	s       *scratch
	gathers int // windows gathered so far, over all columns

	nodes []vnode      // every program's nodes
	progs []vecProg    // the operator's programs, in compile order
	roots []*vcol      // each program's output for the last window evaluated
	args  []data.Value // vecAggregate's argument row
}

// inputCol is one referenced column, cell at of its side's rows (0 the left
// or only table, 1 a pair's right): a borrowed window holding rows
// [lo, lo+batchSize) of it (lo < 0 before the first gather).
type inputCol struct {
	vcol
	lo, side, at int
}

// newInputCols readies the scratch's inputCols for the operator over r.
func newInputCols(r nodeResult, s *scratch) *inputCols {
	width := len(r.table.Schema)
	if r.shape == pairs {
		width += len(r.right.Schema)
	}
	in := &s.in
	in.r, in.n, in.s = r, r.len(), s
	in.cols = sized(in.cols, width) // release left every column zero
	return in
}

// release gives every window back and empties the programs, keeping their
// arrays for the next operator with no reference to a table or a string.
// Nothing compiled against in may run after.
func (in *inputCols) release() {
	s := in.s
	s.ints.giveBack(-1, false)
	s.fs.giveBack(math.NaN(), false)
	s.ss.giveBack("\x00poison", true)
	s.bs.giveBack(true, false)
	s.rs.giveBack(nil, true)
	clear(in.cols)
	clear(in.nodes)
	clear(in.roots)
	clear(in.args)
	*in = inputCols{cols: in.cols[:0], nodes: in.nodes[:0], progs: in.progs[:0], roots: in.roots[:0], args: in.args[:0]}
}

// rows returns table side's rows behind the input's rows [lo, lo+n), under
// positions a borrowed window filled once however many columns gather from it.
func (in *inputCols) rows(side, lo, n int) []data.Row {
	t := [2]*data.Table{in.r.table, in.r.right}[side]
	if in.r.shape == rowsShape {
		return t.Rows[lo : lo+n]
	}
	if in.sides[side] == nil {
		in.sides[side], in.sideLo[side] = in.s.rs.borrow(), -1
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
		c.ints = in.s.ints.borrow()
	case data.KindFloat:
		c.fs = in.s.fs.borrow()
	case data.KindString:
		c.ss = in.s.ss.borrow()
	case data.KindBool:
		c.bs = in.s.bs.borrow()
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
			c.ss[i] = row[at].Str()
		}
	case data.KindBool:
		for i, row := range rows {
			c.bs[i] = row[at].B
		}
	}
}

// vop is a compiled node's operation.
type vop uint8

const (
	opConst vop = iota // out filled at compile
	opCol              // gathers input column col into out
	opAnd
	opEqStr // =, or != under neg
	opEqInt
	opLess // l < r; swap and neg make it >, >= and <=
	opMod
)

// vnode is one compiled expression node, an element of the scratch's flat
// node list: kids l and r index that list and precede it. eval fills out[0:n]
// for the window starting at absolute row lo, after the kids.
type vnode struct {
	out       vcol
	op        vop
	neg, swap bool
	l, r      int32
	col       int       // opCol's input column
	fl, fr    []float64 // opLess's float views of its kids
}

// vecProg is a compiled expression: the nodes [lo, hi) of the node list in
// post-order, its root last. A nil expression's program is empty.
type vecProg struct{ lo, hi int32 }

// eval runs program p for the window [lo, lo+n) and returns its root's output
// column (valid until the next eval), nil for an empty program.
func (in *inputCols) eval(p vecProg, lo, n int) *vcol {
	nodes := in.nodes
	for k := p.lo; k < p.hi; k++ {
		nd := &nodes[k]
		l, r, out := &nodes[nd.l].out, &nodes[nd.r].out, nd.out.bs
		switch nd.op {
		case opCol:
			in.gather(nd.col, lo, n)
		case opAnd:
			lb, rb := l.bs, r.bs
			for i := 0; i < n; i++ {
				out[i] = lb[i] && rb[i]
			}
		case opEqStr:
			ls, rs := l.ss, r.ss
			for i := 0; i < n; i++ {
				out[i] = (ls[i] == rs[i]) != nd.neg
			}
			applyNullGuard(l, r, out, n)
		case opEqInt:
			li, ri := l.ints, r.ints
			for i := 0; i < n; i++ {
				out[i] = (li[i] == ri[i]) != nd.neg
			}
			applyNullGuard(l, r, out, n)
		case opLess:
			lf, rf := l.floats(nd.fl, n), r.floats(nd.fr, n)
			if nd.swap {
				lf, rf = rf, lf
			}
			for i := 0; i < n; i++ {
				out[i] = (lf[i] < rf[i]) != nd.neg
			}
			applyNullGuard(l, r, out, n)
		case opMod:
			li, ri := l.ints, r.ints
			quo, mask := nd.out.ints, nd.out.null
			for i := 0; i < n; i++ {
				// A masked divisor reads 0 (AsInt on NULL), so a NULL divisor
				// yields NULL exactly like the row path.
				if ri[i] == 0 {
					quo[i], mask[i] = 0, true
				} else {
					quo[i], mask[i] = li[i]%ri[i], false
				}
			}
		}
	}
	if p.lo == p.hi {
		return nil
	}
	return &nodes[p.hi-1].out
}

// evalAll runs every program for the window [lo, lo+w) and returns their
// outputs, in compile order.
func (in *inputCols) evalAll(lo, w int) []*vcol {
	in.roots = sized(in.roots, len(in.progs))
	for i, p := range in.progs {
		in.roots[i] = in.eval(p, lo, w)
	}
	return in.roots
}

// compile compiles e against the input columns into the next program,
// validating the columns it references and borrowing every buffer from the
// scratch, and returns the kind of its output (KindNull for a nil e). ok=false
// means the expression or a referenced column is outside kernel coverage and
// the caller must use the row path.
func (in *inputCols) compile(e plan.Expr) (kind data.Kind, ok bool) {
	lo := int32(len(in.nodes))
	if e != nil {
		root, ok := in.node(e)
		if !ok {
			return 0, false
		}
		kind = in.nodes[root].out.kind
	}
	in.progs = append(in.progs, vecProg{lo, int32(len(in.nodes))})
	return kind, true
}

// compileAll compiles every expression against in, which shares one gather
// per window of each referenced column among them.
func compileAll(in *inputCols, exprs []plan.Expr) bool {
	for _, e := range exprs {
		if _, ok := in.compile(e); !ok {
			return false
		}
	}
	return true
}

// add appends nd to the node list and returns its index.
func (in *inputCols) add(nd vnode) int32 {
	in.nodes = append(in.nodes, nd)
	return int32(len(in.nodes) - 1)
}

func (in *inputCols) node(e plan.Expr) (int32, bool) {
	switch x := e.(type) {
	case *plan.ColRef:
		src, ok := in.col(x.Index)
		if !ok {
			return 0, false
		}
		return in.add(vnode{out: src.vcol, op: opCol, col: x.Index}), true
	case *plan.Const:
		return in.constant(x.Val)
	case *plan.Param:
		return in.constant(x.Val)
	case *plan.Binary:
		return in.binary(x)
	default:
		// Calls fall back: builtins may allocate, and the nondeterministic
		// ones consume per-job PRNG state in row order. So do the unary
		// operators, which no workload runs.
		return 0, false
	}
}

func (in *inputCols) constant(v data.Value) (int32, bool) {
	if v.IsNull() {
		return 0, false
	}
	out := vcol{kind: v.Kind}
	// No window is taller than the table, so the broadcast stops there.
	w := min(batchSize, in.n)
	switch v.Kind {
	case data.KindInt, data.KindTime:
		out.ints = in.s.ints.borrow()
		fill(out.ints[:w], v.I)
	case data.KindFloat:
		out.fs = in.s.fs.borrow()
		fill(out.fs[:w], v.F)
	case data.KindString:
		out.ss = in.s.ss.borrow()
		fill(out.ss[:w], v.Str())
	case data.KindBool:
		out.bs = in.s.bs.borrow()
		fill(out.bs[:w], v.B)
	default:
		return 0, false
	}
	return in.add(vnode{out: out, op: opConst}), true
}

// isIntKind reports whether a column of kind k holds its payload in ints.
func isIntKind(k data.Kind) bool { return k == data.KindInt || k == data.KindTime }

// isNumericKind reports whether the kernels order kind k as Value.Compare
// does, as a float. Compare orders a Bool as a number too; no kernel does.
func isNumericKind(k data.Kind) bool { return isIntKind(k) || k == data.KindFloat }

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

// binary compiles the arms the workloads execute: AND, = and != on two
// strings or on two ints or times of one kind, the four orderings on
// numerics, and % on ints. Every other arm — OR, = across numeric kinds or on
// floats and bools, ordering strings, + - * / and LIKE — runs on the row loop,
// which gives the same answer.
func (in *inputCols) binary(x *plan.Binary) (int32, bool) {
	l, ok := in.node(x.L)
	if !ok {
		return 0, false
	}
	r, ok := in.node(x.R)
	if !ok {
		return 0, false
	}
	lk, rk := in.nodes[l].out.kind, in.nodes[r].out.kind
	nd := vnode{out: vcol{kind: data.KindBool}, l: l, r: r}

	switch x.Op {
	case "AND":
		// Eager evaluation of both sides is observationally identical to the
		// row path's short-circuit because Calls never compile (kernels are
		// side-effect-free), and truthy() on the guaranteed-Bool operands is
		// just the bool payload.
		if lk != data.KindBool || rk != data.KindBool {
			return 0, false
		}
		nd.op = opAnd

	case "=", "!=":
		nd.neg = x.Op == "!="
		switch {
		case lk == data.KindString && rk == data.KindString:
			nd.op = opEqStr
		case lk == rk && isIntKind(lk):
			// Same-kind integer equality is exact (Value.Equal compares I
			// directly, no float round-trip).
			nd.op = opEqInt
		default:
			return 0, false
		}

	case "<", "<=", ">", ">=":
		// Value.Compare orders all numerics (ints included) as floats, and
		// one NaN or both make it 0. So a > b is b < a, as plan.NormalizeExpr
		// writes it; a >= b is !(a < b); a <= b is !(b < a). One loop serves
		// all four.
		if !isNumericKind(lk) || !isNumericKind(rk) {
			return 0, false
		}
		nd.op, nd.swap, nd.neg = opLess, x.Op == ">" || x.Op == "<=", len(x.Op) == 2
		nd.fl, nd.fr = in.s.fs.borrow(), in.s.fs.borrow()

	case "%":
		if !isIntKind(lk) || !isIntKind(rk) {
			return 0, false
		}
		nd.op, nd.out = opMod, vcol{kind: data.KindInt, ints: in.s.ints.borrow(), null: in.s.bs.borrow()}
		return in.add(nd), true

	default:
		return 0, false
	}
	nd.out.bs = in.s.bs.borrow()
	return in.add(nd), true
}

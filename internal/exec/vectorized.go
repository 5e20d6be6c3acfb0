// Batch operator implementations over the typed column vectors of vec.go.
// Every function returns (batches, ok); ok=false means the operator must run
// on the row loop in exec.go (executor not in vectorized mode, a referenced
// column failed validation, or an expression is outside kernel coverage).
// Everything compiles before anything evaluates, so a declined operator has
// consumed nothing. Every kernel buffer is a window borrowed through the
// operator's inputCols and given back when the function returns (see
// windowPool), so nothing returned may alias one. Output rows, output ORDER,
// and all accounting are byte-identical to the row loop.
package exec

import (
	"cloudviews/internal/bitvector"
	"cloudviews/internal/data"
	"cloudviews/internal/plan"
)

// compileAll compiles every expression against in, which shares one gather
// per window of each referenced column among them.
func compileAll(in *inputCols, exprs []plan.Expr) ([]*vecProg, bool) {
	progs := make([]*vecProg, len(exprs))
	for i, e := range exprs {
		p, ok := compileVec(e, in)
		if !ok {
			return nil, false
		}
		progs[i] = p
	}
	return progs, true
}

// evalAll runs every program for the window [lo, lo+w) into roots.
func evalAll(progs []*vecProg, roots []*vcol, lo, w int) {
	for i, p := range progs {
		roots[i] = p.eval(lo, w)
	}
}

// vecFilter evaluates pred over the table r in batchSize windows, marking the
// rows it keeps in keep.
func (ex *Executor) vecFilter(r nodeResult, pred plan.Expr, keep *bitvector.Bitmap) (int64, bool) {
	if !ex.Vectorized {
		return 0, false
	}
	n := r.len()
	if n == 0 {
		return 0, true
	}
	in := newInputCols(r)
	defer in.release()
	prog, ok := compileVec(pred, in)
	if !ok || prog.root.out.kind != data.KindBool {
		return 0, false
	}
	var batches int64
	for lo := 0; lo < n; lo += batchSize {
		w := min(batchSize, n-lo)
		res := prog.eval(lo, w)
		for i := 0; i < w; i++ {
			// truthy(): Bool kernels never mask, but stay defensive.
			if res.bs[i] && (res.null == nil || !res.null[i]) {
				keep.Set(lo + i)
			}
		}
		batches++
	}
	return batches, true
}

// vecProject evaluates every projection expression per window over r (any
// shape) and materializes output rows from the result vectors.
func (ex *Executor) vecProject(r nodeResult, exprs []plan.Expr, out *data.Table) (int64, bool) {
	if !ex.Vectorized {
		return 0, false
	}
	n := r.len()
	if n == 0 {
		return 0, true
	}
	in := newInputCols(r)
	defer in.release()
	progs, ok := compileAll(in, exprs)
	if !ok {
		return 0, false
	}
	roots := make([]*vcol, len(progs))
	var slab data.RowSlab
	slab.Expect(n)
	out.Rows = make([]data.Row, 0, n)
	var batches int64
	for lo := 0; lo < n; lo += batchSize {
		w := min(batchSize, n-lo)
		evalAll(progs, roots, lo, w)
		for i := 0; i < w; i++ {
			nr := slab.New(len(exprs))
			for j, rc := range roots {
				nr[j] = rc.value(i)
			}
			out.Append(nr)
		}
		batches++
	}
	return batches, true
}

// vecJoinKeys computes the length-prefixed hash key of every row of r under
// the key expressions, evaluating them vectorized, into *dst (resized to one
// key per row, its array reused). The keys are byte-identical to appendJoinKey
// per row, so build/probe behavior is unchanged — only the per-row expression
// dispatch cost is gone. A window's keys cost one allocation (see keyPacker).
func (ex *Executor) vecJoinKeys(r nodeResult, keys []plan.Expr, dst *[]string, pack *keyPacker) (int64, bool) {
	if !ex.Vectorized || len(keys) == 0 {
		return 0, false
	}
	n := r.len()
	if n == 0 {
		*dst = (*dst)[:0]
		return 0, true
	}
	in := newInputCols(r)
	defer in.release()
	progs, ok := compileAll(in, keys)
	if !ok {
		return 0, false
	}
	outKeys := sized(*dst, n)
	*dst = outKeys
	roots := make([]*vcol, len(progs))
	var batches int64
	for lo := 0; lo < n; lo += batchSize {
		w := min(batchSize, n-lo)
		evalAll(progs, roots, lo, w)
		for i := 0; i < w; i++ {
			for _, rc := range roots {
				pack.buf = appendKeyValue(pack.buf, rc.value(i))
			}
			pack.end()
		}
		pack.flush(outKeys[lo : lo+w])
		batches++
	}
	return batches, true
}

// vecAggregate is the vectorized hash aggregate over r (any shape): group-by and
// aggregate-argument expressions evaluate per window, then rows accumulate in
// input order into the same aggTable as the row loop (identical float
// summation order, identical group discovery order).
func (ex *Executor) vecAggregate(r nodeResult, groups *aggTable) (int64, bool) {
	if !ex.Vectorized {
		return 0, false
	}
	n := r.len()
	if n == 0 {
		return 0, false
	}
	x := groups.x
	in := newInputCols(r)
	defer in.release()
	groupProgs, ok := compileAll(in, x.GroupBy)
	if !ok {
		return 0, false
	}
	argProgs := make([]*vecProg, len(x.Aggs)) // nil where Arg is nil
	for j, spec := range x.Aggs {
		if spec.Arg == nil {
			continue
		}
		if argProgs[j], ok = compileVec(spec.Arg, in); !ok {
			return 0, false
		}
	}

	var buf [64]byte
	groupRoots := make([]*vcol, len(groupProgs))
	argRoots := make([]*vcol, len(argProgs))
	args := make([]data.Value, len(x.Aggs))
	var batches int64
	for lo := 0; lo < n; lo += batchSize {
		w := min(batchSize, n-lo)
		evalAll(groupProgs, groupRoots, lo, w)
		for j, p := range argProgs {
			if p != nil {
				argRoots[j] = p.eval(lo, w)
			}
		}
		for i := 0; i < w; i++ {
			kb := buf[:0]
			for _, rc := range groupRoots {
				kb = appendKeyValue(kb, rc.value(i))
			}
			gi, isNew := groups.find(kb)
			if isNew {
				for j, rc := range groupRoots {
					groups.states[gi].row[j] = rc.value(i)
				}
			}
			for j, rc := range argRoots {
				if rc != nil {
					args[j] = rc.value(i)
				}
			}
			groups.accumulate(gi, args)
		}
		batches++
	}
	return batches, true
}

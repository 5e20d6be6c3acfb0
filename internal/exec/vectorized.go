// Batch operator implementations over the typed column vectors of vec.go.
// Every function returns (batches, ok); ok=false means the operator must run
// on the row loop in exec.go (executor not in vectorized mode, a referenced
// column failed validation, or an expression is outside kernel coverage).
// Everything compiles before anything evaluates, so a declined operator has
// consumed nothing. Every kernel buffer is a window of the run's scratch,
// borrowed through the operator's inputCols and given back when the function
// returns (see windows), so nothing returned may alias one. The compiled
// programs are the scratch's too (see inputCols). Output rows, output ORDER,
// and all accounting are byte-identical to the row loop.
package exec

import (
	"cloudviews/internal/bitvector"
	"cloudviews/internal/data"
	"cloudviews/internal/plan"
)

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
	in := newInputCols(r, ex.scratch())
	defer in.release()
	if kind, ok := in.compile(pred); !ok || kind != data.KindBool {
		return 0, false
	}
	var batches int64
	for lo := 0; lo < n; lo += batchSize {
		w := min(batchSize, n-lo)
		res := in.evalAll(lo, w)[0]
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
	in := newInputCols(r, ex.scratch())
	defer in.release()
	if !compileAll(in, exprs) {
		return 0, false
	}
	var slab data.RowSlab
	slab.Expect(n)
	out.Rows = make([]data.Row, 0, n)
	var batches int64
	for lo := 0; lo < n; lo += batchSize {
		w := min(batchSize, n-lo)
		roots := in.evalAll(lo, w)
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
	in := newInputCols(r, ex.scratch())
	defer in.release()
	if !compileAll(in, keys) {
		return 0, false
	}
	outKeys := sized(*dst, n)
	*dst = outKeys
	var batches int64
	for lo := 0; lo < n; lo += batchSize {
		w := min(batchSize, n-lo)
		roots := in.evalAll(lo, w)
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
	in := newInputCols(r, ex.scratch())
	defer in.release()
	if !compileAll(in, x.GroupBy) {
		return 0, false
	}
	for _, spec := range x.Aggs {
		if _, ok := in.compile(spec.Arg); !ok { // a nil Arg's root is nil
			return 0, false
		}
	}

	var buf [64]byte
	in.args = sized(in.args, len(x.Aggs)) // release left every argument zero
	args := in.args
	var batches int64
	for lo := 0; lo < n; lo += batchSize {
		w := min(batchSize, n-lo)
		roots := in.evalAll(lo, w)
		groupRoots, argRoots := roots[:len(x.GroupBy)], roots[len(x.GroupBy):]
		for i := 0; i < w; i++ {
			kb := buf[:0]
			for _, rc := range groupRoots {
				kb = appendKeyValue(kb, rc.value(i))
			}
			gi, isNew := groups.find(kb)
			if isNew {
				for j, rc := range groupRoots {
					groups.rows[gi][j] = rc.value(i)
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

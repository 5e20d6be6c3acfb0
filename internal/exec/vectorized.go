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
	"sort"

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

// vecFilter evaluates pred in batchSize windows, marking survivors in a
// full-height selection bitmap (n/8 bytes), so the output's row slice is
// allocated once at its exact size. Row slices are appended by reference,
// exactly like the row path.
func (ex *Executor) vecFilter(t *data.Table, pred plan.Expr, out *data.Table) (int64, bool) {
	if !ex.Vectorized {
		return 0, false
	}
	n := len(t.Rows)
	if n == 0 {
		return 0, true
	}
	in := newInputCols(t, 0)
	defer in.release()
	prog, ok := compileVec(pred, in)
	if !ok || prog.root.out.kind != data.KindBool {
		return 0, false
	}
	var sel bitvector.Bitmap
	sel.Resize(n)
	var batches int64
	for lo := 0; lo < n; lo += batchSize {
		w := min(batchSize, n-lo)
		res := prog.eval(lo, w)
		for i := 0; i < w; i++ {
			// truthy(): Bool kernels never mask, but stay defensive.
			if res.bs[i] && (res.null == nil || !res.null[i]) {
				sel.Set(lo + i)
			}
		}
		batches++
	}
	out.Rows = make([]data.Row, 0, sel.Count())
	sel.ForEachSet(func(i int) {
		out.Append(t.Rows[i])
	})
	return batches, true
}

// vecProject evaluates every projection expression per window and
// materializes output rows from the result vectors.
func (ex *Executor) vecProject(r nodeResult, exprs []plan.Expr, out *data.Table) (int64, bool) {
	if !ex.Vectorized {
		return 0, false
	}
	n := len(r.table.Rows)
	if n == 0 {
		return 0, true
	}
	in := newInputCols(r.table, r.dropped)
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

// vecJoinKeys computes the length-prefixed hash key of every row in t under
// the key expressions, evaluating them vectorized, into *dst (resized to one
// key per row, its array reused). The keys are byte-identical to joinKey() per
// row, so build/probe behavior is unchanged — only the per-pair/per-row
// expression dispatch cost is gone. A window's keys cost one allocation (see
// keyPacker).
func (ex *Executor) vecJoinKeys(t *data.Table, keys []plan.Expr, dst *[]string, pack *keyPacker) (int64, bool) {
	if !ex.Vectorized || len(keys) == 0 {
		return 0, false
	}
	n := len(t.Rows)
	if n == 0 {
		*dst = (*dst)[:0]
		return 0, true
	}
	in := newInputCols(t, 0)
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

// vecAggregate is the vectorized hash aggregate: group-by and
// aggregate-argument expressions evaluate per window, then rows accumulate in
// input order into the same aggTable as the row loop (identical float
// summation order, identical group discovery order).
func (ex *Executor) vecAggregate(r nodeResult, groups *aggTable) (int64, bool) {
	if !ex.Vectorized {
		return 0, false
	}
	n := len(r.table.Rows)
	if n == 0 {
		return 0, false
	}
	x := groups.x
	in := newInputCols(r.table, r.dropped)
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

// vecSample reproduces the row path's FNV-with-finalizer sampling hash by
// streaming each cell's exact String() rendering through a reused buffer —
// no per-cell []byte allocation — in batchSize windows.
func (ex *Executor) vecSample(t *data.Table, threshold uint64, out *data.Table) int64 {
	n := len(t.Rows)
	var buf [96]byte
	var batches int64
	for lo := 0; lo < n; lo += batchSize {
		w := min(batchSize, n-lo)
		for i := 0; i < w; i++ {
			row := t.Rows[lo+i]
			var h uint64 = 1469598103934665603
			for _, v := range row {
				cell := appendKeyPayload(buf[:0], v)
				for _, c := range cell {
					h = (h ^ uint64(c)) * 1099511628211
				}
			}
			h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
			h = (h ^ (h >> 27)) * 0x94d049bb133111eb
			h ^= h >> 31
			if (h>>32)%(1<<32) < threshold {
				out.Append(row)
			}
		}
		batches++
	}
	return batches
}

// vecSort materializes the sort-key columns once (batch-evaluated), then
// stably sorts row indices with a comparator that reproduces Value.Compare
// exactly: NULL first, numerics via float, strings bytewise.
func (ex *Executor) vecSort(t *data.Table, x *plan.Sort, out *data.Table) (int64, bool) {
	if !ex.Vectorized {
		return 0, false
	}
	n := len(t.Rows)
	if n == 0 {
		return 0, false
	}
	in := newInputCols(t, 0)
	defer in.release()
	progs, ok := compileAll(in, x.Keys)
	if !ok {
		return 0, false
	}
	// Full-height key columns, copied window by window out of the kernels'
	// borrowed buffers.
	keyCols := make([]vcol, len(progs))
	var batches int64
	for lo := 0; lo < n; lo += batchSize {
		w := min(batchSize, n-lo)
		for k, p := range progs {
			root := p.eval(lo, w)
			appendVcol(&keyCols[k], root, w, n)
		}
		batches++
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		for k := range keyCols {
			c := cmpVcolAt(&keyCols[k], ia, ib)
			if x.Desc[k] {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	out.Rows = make([]data.Row, 0, n)
	for _, j := range idx {
		out.Append(t.Rows[j])
	}
	return batches, true
}

// appendVcol appends the first w entries of src to dst, growing dst toward
// capacity total on first use.
func appendVcol(dst *vcol, src *vcol, w, total int) {
	dst.kind = src.kind
	switch src.kind {
	case data.KindInt, data.KindTime:
		if dst.ints == nil {
			dst.ints = make([]int64, 0, total)
		}
		dst.ints = append(dst.ints, src.ints[:w]...)
	case data.KindFloat:
		if dst.fs == nil {
			dst.fs = make([]float64, 0, total)
		}
		dst.fs = append(dst.fs, src.fs[:w]...)
	case data.KindString:
		if dst.ss == nil {
			dst.ss = make([]string, 0, total)
		}
		dst.ss = append(dst.ss, src.ss[:w]...)
	case data.KindBool:
		if dst.bs == nil {
			dst.bs = make([]bool, 0, total)
		}
		dst.bs = append(dst.bs, src.bs[:w]...)
	}
	if src.null != nil && dst.null == nil {
		dst.null = make([]bool, 0, total)
		// Backfill previously appended unmasked windows.
		for len(dst.null) < vcolLen(dst)-w {
			dst.null = append(dst.null, false)
		}
	}
	if dst.null != nil {
		for i := 0; i < w; i++ {
			dst.null = append(dst.null, src.null != nil && src.null[i])
		}
	}
}

func vcolLen(c *vcol) int {
	switch c.kind {
	case data.KindInt, data.KindTime:
		return len(c.ints)
	case data.KindFloat:
		return len(c.fs)
	case data.KindString:
		return len(c.ss)
	case data.KindBool:
		return len(c.bs)
	}
	return 0
}

// cmpVcolAt reproduces Value.Compare over two entries of one key column.
// Within a column the kind is uniform, so only the NULL, numeric, and string
// arms of Compare are reachable — numerics (ints included) compare as floats,
// exactly like the row path.
func cmpVcolAt(c *vcol, a, b int) int {
	an := c.null != nil && c.null[a]
	bn := c.null != nil && c.null[b]
	if an || bn {
		switch {
		case an == bn:
			return 0
		case an:
			return -1
		default:
			return 1
		}
	}
	switch c.kind {
	case data.KindInt, data.KindTime:
		af, bf := float64(c.ints[a]), float64(c.ints[b])
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	case data.KindFloat:
		switch {
		case c.fs[a] < c.fs[b]:
			return -1
		case c.fs[a] > c.fs[b]:
			return 1
		default:
			return 0
		}
	case data.KindBool:
		af, bf := 0, 0
		if c.bs[a] {
			af = 1
		}
		if c.bs[b] {
			bf = 1
		}
		return af - bf
	case data.KindString:
		switch {
		case c.ss[a] < c.ss[b]:
			return -1
		case c.ss[a] > c.ss[b]:
			return 1
		default:
			return 0
		}
	}
	return 0
}

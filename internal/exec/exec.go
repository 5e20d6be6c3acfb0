// Package exec executes logical plans over in-memory tables and accounts the
// compute and IO each operator consumed. The accounting model is the bridge
// to the cluster simulator: "work" is measured in container-seconds, and each
// dataset carries a logical scale factor so that small in-memory tables stand
// in for production-scale inputs (rows execute small, work and bytes account
// big). Spool and ViewScan implement the CloudViews online-materialization
// and reuse operators.
package exec

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"sort"
	"sync"

	"cloudviews/internal/bitvector"
	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/fault"
	"cloudviews/internal/obs"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
)

// Cost-model constants, in container-seconds per row (or per byte). The
// absolute values are calibrated so that a job over a few-GB logical input
// runs for minutes of simulated time, like a small SCOPE job.
const (
	costScanRow    = 2.0e-6
	costFilterRow  = 1.0e-6
	costProjectRow = 1.5e-6
	costHashRow    = 4.0e-6 // per build+probe row
	costMergeRow   = 2.0e-6 // per input row once sorted
	costSortRow    = 1.0e-6 // per row per log2(n) when merge join must sort
	costLoopOuter  = 1.0e-6 // per outer row, plus a small-side penalty
	costAggRow     = 3.0e-6
	costUDORow     = 8.0e-6 // user code is slow
	costUnionRow   = 0.2e-6
	costSampleRow  = 0.8e-6
	costOrderRow   = 1.2e-6 // per row per log2(n)
	// IO costs per LOGICAL byte.
	costReadByte  = 6.0e-9 // ~160 MB/s effective
	costWriteByte = 9.0e-9
)

// ViewStore is the interface the executor needs from the materialized-view
// storage layer. internal/storage implements it.
//
// Tables cross this interface by reference, in both directions, under the
// executor's ownership rule: a table is written by the one operator
// invocation that builds it and is read-only from the moment that operator
// returns it. No operator writes to a row or a Rows slice it was given;
// Filter, Union, Sample, Sort and the pass-through UDOs put their input's
// rows into their output by reference. So one table may at once be a catalog
// version, a sealed view, a result-cache entry and a job's output.
type ViewStore interface {
	// Fetch returns the view's table and logical scale multiplier. ok=false
	// when the view does not exist, is unsealed, or has expired. The table is
	// the stored one, shared with every other reader.
	Fetch(strict signature.Sig) (t *data.Table, mult float64, ok bool)
	// Materialize stores a freshly computed view. vc is the virtual cluster
	// that owns the bytes; mult is the logical scale multiplier of the
	// producing subexpression. The store keeps t itself; the executor goes on
	// reading it as the Spool's output.
	Materialize(strict signature.Sig, path, vc string, t *data.Table, mult float64) error
}

// ViewReadWork estimates the container-seconds needed to scan a materialized
// view of the given logical size; the optimizer compares it against the
// historical cost of recomputing the subexpression.
func ViewReadWork(rows, bytes int64) float64 {
	return float64(rows)*costScanRow + float64(bytes)*costReadByte
}

// SpoolWriteWork estimates the container-seconds to write a view of the given
// logical size — the materialization overhead charged to the first job.
func SpoolWriteWork(bytes int64) float64 {
	return float64(bytes) * costWriteByte
}

// NodeStat records what one operator did during a run: the run's one
// accounting record, of which every RunResult total is a fold. Rows, bytes
// and work are logical (scale-multiplied) quantities.
type NodeStat struct {
	Node     plan.Node
	Algo     plan.JoinAlgo // joins only
	RowsOut  int64
	BytesOut int64
	Work     float64
	// Read is the logical bytes the operator read: a Scan's dataset, a
	// ViewScan's view, a Join's two exchanged inputs, an Aggregate's shuffled
	// input; 0 for every other operator.
	Read int64
	// Batches counts the vectorized batches this operator processed (0 when
	// the operator ran on the row-at-a-time path). Accounting only — it is
	// never rendered into traces or goldens.
	Batches int64
}

// RunResult is the outcome of executing one plan. Its four totals are folds
// of Stats, taken in recording order when the run ends; a replayed cache
// entry contributes through the stats it appends.
type RunResult struct {
	Table *data.Table
	Stats []NodeStat
	// TotalWork is the job's total compute in container-seconds, including
	// materialization overhead: Σ Work.
	TotalWork float64
	// InputBytes counts logical bytes read from base datasets only: Σ Read
	// over Scans.
	InputBytes int64
	// TotalRead includes inputs, views, and exchange reads: Σ Read.
	TotalRead int64
	// SpoolWork is the portion of TotalWork spent writing views, Σ Work over
	// Spools; the cluster simulator runs it as a parallel stage off the
	// critical path.
	SpoolWork float64
	// CacheHits counts subexpressions served from the executor result cache.
	CacheHits int
	// FallbackSigs lists, in evaluation order, the strict signature of every
	// ViewScan whose artifact could not be read (genuinely missing or
	// fault-injected) and was transparently recomputed from its Fallback
	// subexpression. The guard layer correlates them with the optimizer's
	// matched views to charge forfeited savings to the right circuit breaker.
	FallbackSigs []signature.Sig
}

// CacheEntry memoizes the result of a subexpression for replay across
// identical executions (so that repeated identical jobs don't recompute — the
// accounting is still charged in full). It is stored under the subtree's
// result-cache key (signature.Signer.Sign): its strict signature when no
// ViewScan sits below it, and never for a subtree holding a Spool. Stats holds
// one NodeStat per node of the subtree, in post-order; equal keys mean equal
// shapes, so a replay points them at the replaying plan's nodes in turn.
//
// Pos, when not nil, is a Filter's selection: the rows of Table at those
// positions, built on replay for a parent that reads rows. Pairs are never stored.
//
// An entry is never written once stored, and neither is what it holds: Stats
// is the producing run's own stats for the subtree, shared rather than copied
// (a recorded NodeStat is never written; a replay relabels its own copy).
type CacheEntry struct {
	Table *data.Table
	Pos   []int32
	// Bytes is the result's ByteSize, measured once by the producing operator.
	Bytes int64
	Mult  float64
	Stats []NodeStat
}

// cacheEntries bounds the result cache. It is deliberately generous —
// eviction is a memory-safety backstop for long simulations, not a tuning
// knob — so it only evicts on workloads with >64k distinct subexpressions.
const cacheEntries = 65536

// Cache holds subtree results under their result-cache keys, with
// deterministic LRU eviction. It is safe for concurrent use: many executors (one per in-flight
// job) share one cache, and identical subexpressions racing to populate an
// entry resolve first-writer-wins, which is sound because equal keys imply
// byte-identical results. Eviction order is the exact least-recently-used
// order of Get/Put calls, so single-threaded runs evict deterministically;
// eviction only ever forces a recompute (identical bytes), never a wrong
// result.
type Cache struct {
	mu    sync.Mutex
	m     map[signature.Sig]*lruEntry
	head  *lruEntry // most recently used
	tail  *lruEntry // least recently used
	limit int       // cacheEntries; tests set a smaller one
	reg   *obs.Registry
	// stored, when set (by tests), sees each entry Put stores, under the lock.
	stored func(signature.Sig, *CacheEntry)
}

type lruEntry struct {
	sig        signature.Sig
	entry      CacheEntry
	prev, next *lruEntry
}

// NewCache creates an empty cache bounded at 65,536 entries.
func NewCache() *Cache {
	return &Cache{m: make(map[signature.Sig]*lruEntry), limit: cacheEntries}
}

// SetMetrics attaches a registry; the eviction counter family
// cloudviews_result_cache_evictions_total is created lazily on the first
// eviction so metric exports stay byte-identical on runs that never evict.
func (c *Cache) SetMetrics(reg *obs.Registry) {
	c.mu.Lock()
	c.reg = reg
	c.mu.Unlock()
}

// Len returns the number of cached subexpressions.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (c *Cache) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) pushFront(e *lruEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Get returns the entry for a result-cache key, if present, marking it most
// recently used.
func (c *Cache) Get(sig signature.Sig) (*CacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[sig]
	if !ok {
		return nil, false
	}
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return &e.entry, true
}

// Put stores an entry unless one already exists (first writer wins, keeping
// replayed accounting stable across concurrent producers), evicting the
// least-recently-used entries when the bound is exceeded.
func (c *Cache) Put(sig signature.Sig, e CacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, exists := c.m[sig]; exists {
		if c.head != old {
			c.unlink(old)
			c.pushFront(old)
		}
		return
	}
	le := &lruEntry{sig: sig, entry: e}
	c.m[sig] = le
	c.pushFront(le)
	if c.stored != nil {
		c.stored(sig, &le.entry)
	}
	evicted := 0
	for len(c.m) > c.limit && c.tail != nil {
		victim := c.tail
		c.unlink(victim)
		delete(c.m, victim.sig)
		evicted++
	}
	if evicted > 0 && c.reg != nil {
		c.reg.Counter("cloudviews_result_cache_evictions_total").Add(float64(evicted))
	}
}

// Executor runs plans. It is not safe for concurrent use; create one per job.
type Executor struct {
	Catalog *catalog.Catalog
	Views   ViewStore // nil disables Spool/ViewScan handling
	Cache   *Cache    // nil disables memoization
	// SigMap holds the result-cache key of every node that has one
	// (signature.Signer.Sign). A node absent from it, such as a Spool and
	// everything above one, is never looked up or stored.
	SigMap map[plan.Node]signature.Sig
	Ctx    *plan.EvalContext
	// Vectorized runs filter, project, join keys, aggregate, sort and sample
	// on typed-column batch kernels (batchSize rows per call) at every input
	// size; production sets it. Kernels reproduce Value semantics bit-for-bit
	// and decline per operator whatever they cannot compile — an expression,
	// type, or NULL pattern outside kernel coverage (see vec.go) — leaving
	// that operator to the row loops in this file. With Vectorized false
	// every operator takes the row loop: the reference the equivalence tests
	// compare the kernels against.
	Vectorized bool
	// Metrics, when set, receives execution totals (cache hits, work,
	// bytes read) once per Run.
	Metrics *obs.Registry
	// Faults, when non-nil, injects spool-write and view-read failures. JobID
	// keys the injection decisions so the fault schedule is a pure function
	// of (seed, job, signature) regardless of execution interleaving.
	Faults *fault.Injector
	JobID  string
	// Trace, when set, receives spool-write failure events (nil-safe).
	Trace *obs.Trace
	// Compiled, when set, is the job's compile result: an aggregate sizes its
	// group table from it once and a join runs the algorithm it picked. nil
	// sizes nothing (tables grow as groups open) and leaves joins to evalJoin.
	Compiled Compiled

	res RunResult
	s   *scratch // taken on the run's first borrow
}

// Compiled is what a compile worked out about its plan's nodes
// (optimizer.CompileResult). ObservedRows reports the mean logical rows
// runtime history recorded for a node's recurring signature; ok is false when
// the node has never run. A wrong answer costs only growth or spare capacity,
// never a different result. JoinAlgo reports the algorithm picked for a join,
// or JoinAuto for one it did not plan (a ViewScan's fallback).
type Compiled interface {
	ObservedRows(n plan.Node) (rows float64, ok bool)
	JoinAlgo(j *plan.Join) plan.JoinAlgo
}

// nodeResult is one operator's output, in one of three shapes: a table's
// rows, a Filter's selection of a table's rows, or pairs of two tables' rows:
// a Join's of its two inputs', an appending UDO's of its input's and its
// appended cells' (evalUDO). Positions are plain slices the result owns, never
// scratch. bytes is what the rows measure (the sum of their ByteSize), measured
// once by the operator that produced them and carried to every consumer that
// accounts it (exchange reads, spool and output writes, cache replays).
type nodeResult struct {
	table *data.Table // the rows; under pairs, the left side's
	right *data.Table // pairs: the right side's rows
	pos   []int32     // selection: the rows of table kept; pairs: (left, right) row indices
	shape shape
	mult  float64
	bytes int64
}

// shape is how a nodeResult holds its rows, in order: a parent that takes one
// shape takes every shape before it.
type shape uint8

const (
	rowsShape shape = iota // table.Rows
	selection              // table.Rows[pos[i]]
	pairs                  // table.Rows[pos[2i]] joined to right.Rows[pos[2i+1]]
)

// accepts is the shape a parent that reads its input only through exprs
// takes: want on the kernels, but rows on the row loops, the reference, and
// when an expression holds a Call or a unary operator, which the kernels never
// compile.
func (ex *Executor) accepts(want shape, exprs []plan.Expr) shape {
	if !ex.Vectorized {
		return rowsShape
	}
	for _, e := range exprs {
		if !compilable(e) {
			return rowsShape
		}
	}
	return want
}

// compilable reports whether e (nil included) holds no Call and no unary
// operator.
func compilable(e plan.Expr) bool {
	switch x := e.(type) {
	case nil, *plan.ColRef, *plan.Const, *plan.Param:
		return true
	case *plan.Binary:
		return compilable(x.L) && compilable(x.R)
	}
	return false
}

// len is the number of rows r holds.
func (r nodeResult) len() int {
	switch r.shape {
	case selection:
		return len(r.pos)
	case pairs:
		return len(r.pos) / 2
	}
	return len(r.table.Rows)
}

// at is the row of table behind row i of a table or a selection.
func (r nodeResult) at(i int) int {
	if r.shape == selection {
		return int(r.pos[i])
	}
	return i
}

// rows returns r's rows: a table's own, a selection's by reference, and pairs
// joined into rows carved from one slab at their exact count. It is the one
// place rows are built from positions: for a parent whose kernels declined,
// and through materialize.
func (r nodeResult) rows() []data.Row {
	if r.shape == rowsShape {
		return r.table.Rows
	}
	rows := make([]data.Row, r.len())
	if r.shape == selection {
		for i, p := range r.pos {
			rows[i] = r.table.Rows[p]
		}
		return rows
	}
	var slab data.RowSlab
	slab.Expect(len(rows))
	for k := range rows {
		lr, rr := r.table.Rows[r.pos[2*k]], r.right.Rows[r.pos[2*k+1]]
		rows[k] = slab.New(len(r.table.Schema) + len(r.right.Schema))
		copy(rows[k][copy(rows[k], lr):], rr)
	}
	return rows
}

// materialize turns r into a table of the given schema, for a parent that
// reads rows: a join's parent, or one replaying a stored selection.
func (r nodeResult) materialize(schema data.Schema) nodeResult {
	t := data.NewTable(schema)
	t.Rows = r.rows()
	return nodeResult{table: t, mult: r.mult, bytes: r.bytes}
}

// produced wraps a freshly built table, sizing it.
func produced(t *data.Table, mult float64) nodeResult {
	return nodeResult{table: t, mult: mult, bytes: t.ByteSize()}
}

func (r nodeResult) logicalBytes() int64 { return int64(float64(r.bytes) * r.mult) }
func (r nodeResult) logicalRows() int64  { return int64(float64(r.len()) * r.mult) }

// finish records st for the operator that produced out, with RowsOut and
// BytesOut filled in from out, and returns out.
func (ex *Executor) finish(st NodeStat, out nodeResult) nodeResult {
	st.RowsOut, st.BytesOut = out.logicalRows(), out.logicalBytes()
	ex.record(st)
	return out
}

// Run executes the plan and returns the result table plus accounting.
func (ex *Executor) Run(root plan.Node) (*RunResult, error) {
	if ex.Ctx == nil {
		ex.Ctx = &plan.EvalContext{Rand: data.NewRand(1)}
	}
	if ex.Ctx.Rand == nil {
		ex.Ctx.Rand = data.NewRand(1)
	}
	// A run records a stat per node it evaluates, and a replay one per node
	// of the subtree it stands for: the plan's count, unless a ViewScan's
	// fallback runs too.
	ex.res = RunResult{Stats: make([]NodeStat, 0, plan.CountNodes(root))}
	defer ex.giveBackScratch()
	r, err := ex.eval(root)
	if err != nil {
		return nil, err
	}
	ex.res.Table = r.table
	for _, s := range ex.res.Stats {
		ex.res.TotalWork += s.Work
		ex.res.TotalRead += s.Read
		switch s.Node.(type) {
		case *plan.Scan:
			ex.res.InputBytes += s.Read
		case *plan.Spool:
			ex.res.SpoolWork += s.Work
		}
	}
	ex.Metrics.Counter("cloudviews_exec_cache_hits_total").Add(float64(ex.res.CacheHits))
	ex.Metrics.Counter("cloudviews_exec_work_seconds_total").Add(ex.res.TotalWork)
	ex.Metrics.Counter("cloudviews_exec_read_bytes_total").Add(float64(ex.res.TotalRead))
	// Fault-related families are created only when they fire, so the metrics
	// export stays byte-identical to seed on fault-free runs.
	if n := len(ex.res.FallbackSigs); n > 0 {
		ex.Metrics.Counter("cloudviews_reuse_fallbacks_total").Add(float64(n))
	}
	return &ex.res, nil
}

func (ex *Executor) record(st NodeStat) { ex.res.Stats = append(ex.res.Stats, st) }

func (ex *Executor) eval(n plan.Node) (nodeResult, error) { return ex.evalReading(n, rowsShape) }

// evalReading evaluates n for a parent that takes any shape up to accept
// (Executor.accepts): a Filter then hands over a selection and a Join its
// pairs. A Spool, a ViewScan's fallback and every other parent take rows.
func (ex *Executor) evalReading(n plan.Node, accept shape) (nodeResult, error) {
	// Subtrees containing a Spool have no key (signature.Signer.Sign).
	// ViewScans bypass the cache while view-read faults are enabled: a cached
	// replay would skip the read entirely and the injection decision (keyed
	// per job and signature) must get a chance to fire.
	_, isView := n.(*plan.ViewScan)
	tainted := isView && ex.Faults.Enabled(fault.ViewRead)

	// Result-cache lookup (equal keys ⇒ identical result).
	if !tainted && ex.Cache != nil && ex.SigMap != nil {
		if sig, ok := ex.SigMap[n]; ok {
			if entry, hit := ex.Cache.Get(sig); hit {
				ex.res.CacheHits++
				// Replay the accounting of the cached subtree, pointing each
				// stat at the node of THIS plan it stands for.
				start := len(ex.res.Stats)
				ex.res.Stats = append(ex.res.Stats, entry.Stats...)
				relabel(ex.res.Stats[start:], n)
				r := nodeResult{table: entry.Table, pos: entry.Pos, mult: entry.Mult, bytes: entry.Bytes}
				if r.pos != nil {
					r.shape = selection
				}
				if r.shape > accept {
					r = r.materialize(r.table.Schema)
				}
				return r, nil
			}
		}
	}

	statsStart, fallbackStart := len(ex.res.Stats), len(ex.res.FallbackSigs)

	r, err := ex.evalNode(n, accept)
	if err != nil {
		return nodeResult{}, err
	}

	// A fallback inside this subtree means its recorded accounting reflects
	// recomputation, not a view read — caching it would replay fault costs
	// into healthy jobs, so skip the Put for the whole ancestor chain. Pairs
	// are never stored: that would add result-cache hits the goldens count.
	if len(ex.res.FallbackSigs) != fallbackStart || r.shape == pairs {
		tainted = true
	}

	// Populate the cache with the subtree's stats (first writer wins), capped
	// so that the run's later appends never reach them.
	if !tainted && ex.Cache != nil && ex.SigMap != nil {
		if sig, ok := ex.SigMap[n]; ok {
			end := len(ex.res.Stats)
			ex.Cache.Put(sig, CacheEntry{Table: r.table, Pos: r.pos, Bytes: r.bytes, Mult: r.mult, Stats: ex.res.Stats[statsStart:end:end]})
		}
	}
	return r, nil
}

// relabel points stats, a replayed entry's NodeStats, at the nodes of n's
// subtree in the order a real run records them (children left to right, then
// the node itself), and returns the stats past the subtree's. An entry holds
// one stat per node of a subtree shaped as n's: one that recorded a fallback
// or a Spool is never stored.
func relabel(stats []NodeStat, n plan.Node) []NodeStat {
	var buf [2]plan.Node
	for _, c := range plan.Inputs(n, &buf) {
		stats = relabel(stats, c)
	}
	stats[0].Node = n
	return stats[1:]
}

func (ex *Executor) evalNode(n plan.Node, accept shape) (nodeResult, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return ex.evalScan(x)
	case *plan.ViewScan:
		return ex.evalViewScan(x)
	case *plan.Filter:
		return ex.evalFilter(x, accept)
	case *plan.Project:
		return ex.evalProject(x)
	case *plan.Join:
		return ex.evalJoin(x, accept)
	case *plan.Aggregate:
		return ex.evalAggregate(x)
	case *plan.Union:
		return ex.evalUnion(x)
	case *plan.UDO:
		return ex.evalUDO(x, accept)
	case *plan.Sample:
		return ex.evalSample(x)
	case *plan.Sort:
		return ex.evalSort(x)
	case *plan.Spool:
		return ex.evalSpool(x)
	case *plan.Output:
		return ex.evalOutput(x)
	default:
		return nodeResult{}, fmt.Errorf("exec: unsupported operator %T", n)
	}
}

func (ex *Executor) evalScan(x *plan.Scan) (nodeResult, error) {
	ver, err := ex.Catalog.VersionByGUID(x.GUID)
	if err != nil {
		return nodeResult{}, err
	}
	if ver.Forgotten {
		return nodeResult{}, fmt.Errorf("exec: version %s was forgotten (GDPR)", x.GUID)
	}
	ds, _ := ex.Catalog.Dataset(x.Dataset)
	out := nodeResult{table: ver.Table, mult: ds.EffectiveScale(), bytes: ver.Bytes}
	lb, rows := out.logicalBytes(), out.logicalRows()
	work := float64(rows)*costScanRow + float64(lb)*costReadByte
	ex.record(NodeStat{Node: x, RowsOut: rows, BytesOut: lb, Work: work, Read: lb})
	return out, nil
}

func (ex *Executor) evalViewScan(x *plan.ViewScan) (nodeResult, error) {
	if ex.Views == nil {
		return nodeResult{}, fmt.Errorf("exec: ViewScan without a view store")
	}
	sig := signature.Sig(x.StrictSig)
	// The decision key carries the artifact path (which embeds the home VC,
	// see storage.PathFor) so fault filters can target one VC's views.
	injected := ex.Faults.Enabled(fault.ViewRead) &&
		ex.Faults.Should(fault.ViewRead, ex.JobID+"|"+x.StrictSig+"|"+x.Path)
	var t *data.Table
	var mult float64
	ok := false
	if !injected {
		t, mult, ok = ex.Views.Fetch(sig)
	}
	if !ok {
		// The artifact is unreadable — injected corruption or genuinely gone
		// (e.g. expired between compile and execute). Reuse must never fail
		// a job: transparently recompute the replaced subexpression instead.
		// The engine records the fallback decision from FallbackSigs.
		if x.Fallback != nil {
			ex.res.FallbackSigs = append(ex.res.FallbackSigs, sig)
			return ex.eval(x.Fallback)
		}
		return nodeResult{}, fmt.Errorf("exec: view %s unavailable", sig.Short())
	}
	out := produced(t, mult)
	lb, rows := out.logicalBytes(), out.logicalRows()
	work := float64(rows)*costScanRow + float64(lb)*costReadByte
	ex.record(NodeStat{Node: x, RowsOut: rows, BytesOut: lb, Work: work, Read: lb})
	return out, nil
}

func (ex *Executor) evalFilter(x *plan.Filter, accept shape) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	// Survivors are marked in a bitmap, so what the filter returns is made at its
	// exact size: a selection (4 bytes a survivor) or a row slice (24).
	var keep bitvector.Bitmap
	keep.Resize(len(in.table.Rows))
	batches, ok := ex.vecFilter(in, x.Pred, &keep)
	if !ok {
		for i, row := range in.table.Rows {
			if v := x.Pred.Eval(row, ex.Ctx); v.Kind == data.KindBool && v.B {
				keep.Set(i)
			}
		}
	}
	out := nodeResult{table: in.table, mult: in.mult}
	if accept < selection {
		out.table = data.NewTable(in.table.Schema)
		out.table.Rows = make([]data.Row, 0, keep.Count())
	} else {
		out.shape, out.pos = selection, make([]int32, 0, keep.Count())
	}
	keep.ForEachSet(func(i int) {
		out.bytes += in.table.Rows[i].ByteSize()
		if out.shape == selection {
			out.pos = append(out.pos, int32(i))
		} else {
			out.table.Rows = append(out.table.Rows, in.table.Rows[i])
		}
	})
	work := float64(in.logicalRows()) * costFilterRow
	return ex.finish(NodeStat{Node: x, Work: work, Batches: batches}, out), nil
}

func (ex *Executor) evalProject(x *plan.Project) (nodeResult, error) {
	in, err := ex.evalReading(x.Child, ex.accepts(pairs, x.Exprs))
	if err != nil {
		return nodeResult{}, err
	}
	out := data.NewTable(x.Schema())
	batches, ok := ex.vecProject(in, x.Exprs, out)
	if !ok {
		var slab data.RowSlab
		slab.Expect(in.len())
		out.Rows = make([]data.Row, 0, in.len())
		for _, row := range in.rows() {
			nr := slab.New(len(x.Exprs))
			for i, e := range x.Exprs {
				nr[i] = e.Eval(row, ex.Ctx)
			}
			out.Append(nr)
		}
	}
	work := float64(in.logicalRows()) * costProjectRow * float64(max(1, len(x.Exprs)))
	return ex.finish(NodeStat{Node: x, Work: work, Batches: batches}, produced(out, in.mult)), nil
}

// appendJoinKey appends a row's join key under the given key expressions,
// in the collision-free length-prefixed encoding (see keys.go).
func (ex *Executor) appendJoinKey(dst []byte, row data.Row, keys []plan.Expr) []byte {
	for _, k := range keys {
		dst = appendKeyValue(dst, k.Eval(row, ex.Ctx))
	}
	return dst
}

// rowJoinKeys is vecJoinKeys on the row loop: the join key of every row of r,
// a table or a selection, in row order, packed one string per batchSize rows.
func (ex *Executor) rowJoinKeys(r nodeResult, keys []plan.Expr, dst *[]string, pack *keyPacker) {
	out := sized(*dst, r.len())
	*dst = out
	for lo := 0; lo < len(out); lo += batchSize {
		hi := min(lo+batchSize, len(out))
		for i := lo; i < hi; i++ {
			pack.buf = ex.appendJoinKey(pack.buf, r.table.Rows[r.at(i)], keys)
			pack.end()
		}
		pack.flush(out[lo:hi])
	}
}

// keyPacker encodes the keys of up to batchSize rows back to back and turns
// them into strings with one allocation: every key is a slice of one string,
// which lives as long as any of its keys does.
type keyPacker struct {
	buf  []byte
	ends [batchSize]int
	n    int
}

// end closes the key appended to buf since the previous end.
func (p *keyPacker) end() {
	p.ends[p.n] = len(p.buf)
	p.n++
}

// flush stores the packed keys into out, one per end call, and resets.
func (p *keyPacker) flush(out []string) {
	all, start := string(p.buf), 0
	for i, e := range p.ends[:p.n] {
		out[i] = all[start:e]
		start = e
	}
	p.buf, p.n = p.buf[:0], 0
}

// joinScratch is everything a join borrows while it probes. The probe only
// records which pairs it keeps; the output table, the one thing the join
// allocates to return, is built from them afterwards at its exact size and
// aliases nothing here. It lives in the run's scratch and is wiped of strings
// and rows when evalJoin returns.
type joinScratch struct {
	pairs []int32     // (left, right) row indices of the pairs kept, in emission order
	keys  [2][]string // each input's key per row: left, right
	index chainIndex  // the build side's rows by key hash
	pack  keyPacker
	probe data.Row // the pair the residual is being tested on
}

func (j *joinScratch) release() {
	if poisonReleased {
		fill(j.pairs[:cap(j.pairs)], -1)
		j.index.poison()
	}
	clear(j.keys[0])
	clear(j.keys[1])
	clear(j.probe[:cap(j.probe)])
	j.pairs = j.pairs[:0]
}

// probeChain calls emit(li, ri) for every build row ri whose key in rKeys is key,
// in build order; h is key's hash. A row that only shares key's chain never
// pairs. key is a packed key, or the row loop's key buffer: comparing it as a
// string copies nothing.
func probeChain[K string | []byte](idx *chainIndex, rKeys []string, key K, h uint64, li int, emit func(li, ri int)) {
	for ri := idx.first(h); ri >= 0; ri = idx.after(ri) {
		if rKeys[ri] == string(key) {
			emit(li, int(ri))
		}
	}
}

// sized returns s at length n, reusing its array when that is long enough;
// the caller writes every element.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// evalJoin joins x's inputs, each a table or a selection, into pairs of their
// tables' row indices, building rows only for a parent that takes no pairs.
func (ex *Executor) evalJoin(x *plan.Join, accept shape) (nodeResult, error) {
	l, err := ex.evalReading(x.L, ex.accepts(selection, nil))
	if err != nil {
		return nodeResult{}, err
	}
	r, err := ex.evalReading(x.R, ex.accepts(selection, nil))
	if err != nil {
		return nodeResult{}, err
	}
	// The algorithm is the optimizer's cost model and picks only the work
	// formula: every keyed join runs the one probe below, so a job's answer
	// and its row order never depend on an estimate. A join the optimizer
	// never planned resolves here.
	ln, rn := l.len(), r.len()
	algo := plan.JoinAuto
	if ex.Compiled != nil {
		algo = ex.Compiled.JoinAlgo(x)
	}
	if algo == plan.JoinAuto {
		algo = plan.JoinHash
		if len(x.LeftKeys) == 0 || min(ln, rn) <= 64 {
			algo = plan.JoinLoop
		}
	}
	mult := math.Max(l.mult, r.mult)
	lRows, rRows := float64(l.logicalRows()), float64(r.logicalRows())
	var work float64
	switch algo {
	case plan.JoinHash:
		work = (lRows + rRows) * costHashRow
	case plan.JoinMerge:
		sortWork := lRows*costSortRow*log2(lRows) + rRows*costSortRow*log2(rRows)
		work = (lRows+rRows)*costMergeRow + sortWork
	case plan.JoinLoop:
		// Broadcast nested-loop: the logical outer streams past a small
		// physical inner copied to every container.
		outer := math.Max(lRows, rRows)
		work = outer * costLoopOuter * (1 + 0.05*float64(min(ln, rn)))
	}
	lt, rt := l.table.Rows, r.table.Rows

	js := &ex.scratch().join
	defer js.release()
	// emit keeps the tables' rows behind input rows li and ri unless the residual rejects them.
	emit := func(li, ri int) {
		li, ri = l.at(li), r.at(ri)
		if x.Residual != nil {
			js.probe = append(append(js.probe[:0], lt[li]...), rt[ri]...)
			if v := x.Residual.Eval(js.probe, ex.Ctx); v.Kind != data.KindBool || !v.B {
				return
			}
		}
		js.pairs = append(js.pairs, int32(li), int32(ri))
	}

	// A keyless join is the cross product. A keyed one keys both inputs once,
	// on the kernels or else the row loop, builds the right side's chains and
	// probes them with every left row: pairs come out in left-row order, then
	// right build order.
	var batches int64
	if len(x.LeftKeys) == 0 {
		for li := range ln {
			for ri := range rn {
				emit(li, ri)
			}
		}
	} else {
		lb, lok := ex.vecJoinKeys(l, x.LeftKeys, &js.keys[0], &js.pack)
		rb, rok := ex.vecJoinKeys(r, x.RightKeys, &js.keys[1], &js.pack)
		batches = lb + rb
		if !rok {
			ex.rowJoinKeys(r, x.RightKeys, &js.keys[1], &js.pack)
		}
		lKeys, rKeys := js.keys[0], js.keys[1]
		// Linking from the last row backwards leaves every chain in build
		// order, the order the probe must emit in.
		js.index.reset(len(rKeys))
		for ri := len(rKeys) - 1; ri >= 0; ri-- {
			js.index.link(int32(ri), maphash.String(keySeed, rKeys[ri]))
		}
		var buf [64]byte
		for li := range ln {
			if lok {
				probeChain(&js.index, rKeys, lKeys[li], maphash.String(keySeed, lKeys[li]), li, emit)
			} else {
				kb := ex.appendJoinKey(buf[:0], lt[l.at(li)], x.LeftKeys)
				probeChain(&js.index, rKeys, kb, maphash.Bytes(keySeed, kb), li, emit)
			}
		}
	}

	// bytes is what the joined rows measure, built or not. A parent gets rows
	// made at the output's size, or the pairs copied out at their exact length.
	res := nodeResult{table: l.table, right: r.table, pos: js.pairs, shape: pairs, mult: mult}
	for k := 0; k < len(js.pairs); k += 2 {
		res.bytes += lt[js.pairs[k]].ByteSize() + rt[js.pairs[k+1]].ByteSize()
	}
	// Exchange: both inputs are shuffled/read by the join stage.
	read := l.logicalBytes() + r.logicalBytes()
	ex.finish(NodeStat{Node: x, Algo: algo, Work: work, Read: read, Batches: batches}, res)
	if accept < pairs {
		return res.materialize(x.Schema()), nil
	}
	res.pos = append(make([]int32, 0, len(js.pairs)), js.pairs...)
	return res, nil
}

func (ex *Executor) evalAggregate(x *plan.Aggregate) (nodeResult, error) {
	accept := ex.accepts(pairs, x.GroupBy)
	for _, spec := range x.Aggs {
		if !compilable(spec.Arg) {
			accept = rowsShape
		}
	}
	in, err := ex.evalReading(x.Child, accept)
	if err != nil {
		return nodeResult{}, err
	}
	out := data.NewTable(x.Schema())
	groups := newAggTable(x, out.Schema, ex.groupHint(x, in), &ex.scratch().group)
	batches, ok := ex.vecAggregate(in, &groups)
	if !ok {
		var buf [64]byte
		vals := make(data.Row, len(x.GroupBy))
		args := make([]data.Value, len(x.Aggs))
		for _, row := range in.rows() {
			key := buf[:0]
			for i, g := range x.GroupBy {
				vals[i] = g.Eval(row, ex.Ctx)
				key = appendKeyValue(key, vals[i])
			}
			gi, isNew := groups.find(key)
			if isNew {
				copy(groups.rows[gi], vals)
			}
			for i, spec := range x.Aggs {
				if spec.Arg != nil {
					args[i] = spec.Arg.Eval(row, ex.Ctx)
				}
			}
			groups.accumulate(gi, args)
		}
	}
	out.Rows = groups.output()
	groups.release()

	work := float64(in.logicalRows()) * costAggRow
	// Output multiplicity: grouped outputs don't scale linearly with the
	// logical multiplier — distinct group counts grow sub-linearly. We keep
	// the conservative model of scaling by sqrt(mult).
	outMult := math.Sqrt(in.mult)
	if len(x.GroupBy) == 0 {
		outMult = 1
	}
	// Exchange: aggregation shuffles its input.
	st := NodeStat{Node: x, Work: work, Read: in.logicalBytes(), Batches: batches}
	return ex.finish(st, produced(out, outMult)), nil
}

// groupHint is how many groups runtime history says x opens over in: the
// observed logical rows with evalAggregate's sqrt(mult) output scaling undone,
// clamped to in's rows, or 0 for no hint. Only history sizes a table: the
// compile-time model guesses a reduction of the logical input, which on a
// scaled dataset reads thousands of times the groups that arrive.
func (ex *Executor) groupHint(x *plan.Aggregate, in nodeResult) int {
	if ex.Compiled == nil || len(x.GroupBy) == 0 || !(in.mult > 0) {
		return 0
	}
	rows, ok := ex.Compiled.ObservedRows(x)
	if !ok || !(rows > 0) || math.IsInf(rows, 1) {
		return 0
	}
	return int(min(math.Ceil(rows/math.Sqrt(in.mult)), float64(in.len())))
}

// aggTable is the hash aggregate's group table, filled by the row loop and by
// vecAggregate alike. A group is its output row and nothing else: the group
// values, written when the group opens, then one cell per aggregate that holds
// the aggregate's running state until output finishes it in place:
//
//	COUNT       I, the count
//	SUM of INT  I, the exact sum, never rounded through a float64
//	other SUM   F, the sum
//	AVG         F the sum, I the count
//	MIN, MAX    the extremum itself, NULL until the first value
//
// rows holds the groups in discovery order, which is the output order, carved
// from one slab. The table finds a group through a chainIndex over its key
// (keys.go), and every key sits back to back in one byte array; the index, the
// keys and each group's key end are borrowed scratch, which nothing output
// references. Given a hint, rows and the index are sized once for it; without
// one, or past it, they grow. The keys and their ends grow in the run's
// scratch, which keeps their arrays for the next table.
type aggTable struct {
	x      *plan.Aggregate
	schema data.Schema // output schema: a SUM whose column is INT adds exactly
	rows   []data.Row
	slab   data.RowSlab
	*groupScratch
}

// groupScratch is what a group table borrows: its chain index, the groups'
// keys back to back, and where each group's key ends.
type groupScratch struct {
	index chainIndex
	keys  []byte
	ends  []int32 // group gi's key is keys[ends[gi-1]:ends[gi]]
}

// newAggTable sizes a table over s for hint groups (0: none expected). A table
// with no GROUP BY opens its one group now, so it answers one row over no
// input. It returns the table by value, so the caller's stays off the heap.
func newAggTable(x *plan.Aggregate, schema data.Schema, hint int, s *groupScratch) aggTable {
	a := aggTable{x: x, schema: schema, groupScratch: s}
	a.index.reset(hint)
	if hint > 0 {
		a.rows = make([]data.Row, 0, hint)
		a.slab.Expect(hint)
	}
	if len(x.GroupBy) == 0 {
		a.find(nil)
	}
	return a
}

// release gives the scratch back to the run, poisoned under tests, once output
// has returned the rows: nothing else of the table may be used after.
func (a *aggTable) release() {
	s := a.groupScratch
	if poisonReleased {
		s.index.poison()
		fill(s.keys[:cap(s.keys)], 0xff)
		fill(s.ends[:cap(s.ends)], -1)
	}
	s.keys, s.ends = s.keys[:0], s.ends[:0]
	a.groupScratch = nil
}

// find returns the position of key's group, opening the group if key is new;
// the caller fills a new group's rows[gi][:len(GroupBy)].
func (a *aggTable) find(key []byte) (gi int32, isNew bool) {
	return a.findHashed(key, maphash.Bytes(keySeed, key))
}

// findHashed is find with key's hash given. A chain compares whole keys, so
// groups whose hashes collide stay apart. When the groups fill the index, it
// is reset twice as large and every group linked again from its key.
func (a *aggTable) findHashed(key []byte, h uint64) (gi int32, isNew bool) {
	for g := a.index.first(h); g >= 0; g = a.index.after(g) {
		if bytes.Equal(a.key(g), key) {
			return g, false
		}
	}
	gi = int32(len(a.rows))
	if int(gi) == a.index.room() {
		a.index.reset(2 * int(gi))
		for g := range gi {
			a.index.link(g, maphash.Bytes(keySeed, a.key(g)))
		}
	}
	a.keys = append(a.keys, key...)
	a.ends = append(a.ends, int32(len(a.keys)))
	a.index.link(gi, h)
	a.rows = append(a.rows, a.slab.New(len(a.schema)))
	return gi, true
}

// key is group gi's key.
func (a *aggTable) key(gi int32) []byte {
	var start int32
	if gi > 0 {
		start = a.ends[gi-1]
	}
	return a.keys[start:a.ends[gi]]
}

// accumulate folds one input row into group gi. args[i] is the row's value
// of x.Aggs[i].Arg, already evaluated by the caller (the row loop through
// Eval, the kernels through their result columns) and ignored where Arg is
// nil, so both callers share this one body. A NULL argument counts toward
// nothing, COUNT included; COUNT(*) has no argument and counts every row.
func (a *aggTable) accumulate(gi int32, args []data.Value) {
	cells, cols := a.rows[gi][len(a.x.GroupBy):], a.schema[len(a.x.GroupBy):]
	for i, spec := range a.x.Aggs {
		v := args[i]
		if spec.Arg != nil && v.IsNull() {
			continue
		}
		c := &cells[i]
		switch spec.Kind {
		case plan.AggCount:
			c.I++
		case plan.AggSum:
			if cols[i].Kind == data.KindInt {
				c.I += v.AsInt()
			} else {
				c.F += v.AsFloat()
			}
		case plan.AggAvg:
			c.F += v.AsFloat()
			c.I++
		case plan.AggMin:
			if c.IsNull() || v.Compare(*c) < 0 {
				*c = v
			}
		case plan.AggMax:
			if c.IsNull() || v.Compare(*c) > 0 {
				*c = v
			}
		}
	}
}

// output finishes every group's aggregate cells in place and returns the
// groups' rows in discovery order.
func (a *aggTable) output() []data.Row {
	cols := a.schema[len(a.x.GroupBy):]
	for _, row := range a.rows {
		cells := row[len(a.x.GroupBy):]
		for i, spec := range a.x.Aggs {
			c := &cells[i]
			switch spec.Kind {
			case plan.AggCount:
				*c = data.Int(c.I)
			case plan.AggSum:
				if cols[i].Kind == data.KindInt {
					*c = data.Int(c.I)
				} else {
					*c = data.Float(c.F)
				}
			case plan.AggAvg:
				// An AVG of no value is left as it began: the zero Value, NULL.
				if c.I != 0 {
					*c = data.Float(c.F / float64(c.I))
				}
			}
		}
	}
	return a.rows
}

func (ex *Executor) evalUnion(x *plan.Union) (nodeResult, error) {
	l, err := ex.eval(x.L)
	if err != nil {
		return nodeResult{}, err
	}
	r, err := ex.eval(x.R)
	if err != nil {
		return nodeResult{}, err
	}
	out := data.NewTable(l.table.Schema)
	out.Rows = make([]data.Row, 0, l.table.NumRows()+r.table.NumRows())
	out.Rows = append(out.Rows, l.table.Rows...)
	out.Rows = append(out.Rows, r.table.Rows...)
	res := produced(out, math.Max(l.mult, r.mult))
	work := float64(res.logicalRows()) * costUnionRow
	return ex.finish(NodeStat{Node: x, Work: work}, res), nil
}

// evalUDO runs a UDO over its input's rows. An appending UDO (plan.Appending)
// whose parent takes pairs, and whose result the cache does not store, reads
// its input as a selection and hands over pairs instead: each input row by
// its position in the input's table, joined to its appended cell in a
// one-column table beside it. Its bytes are the input's plus each cell's, what
// the rows would measure, so no accounting moves.
func (ex *Executor) evalUDO(x *plan.UDO, accept shape) (nodeResult, error) {
	impl, ok := plan.LookupUDO(x.Name)
	if !ok {
		return nodeResult{}, fmt.Errorf("exec: unknown UDO %q", x.Name)
	}
	// A UDO the cache stores keeps to rows, since pairs are never stored.
	_, keyed := ex.SigMap[x]
	byPosition := impl.Cell != nil && accept == pairs && (!keyed || ex.Cache == nil)
	childAccept := rowsShape
	if byPosition {
		childAccept = selection
	}
	in, err := ex.evalReading(x.Child, childAccept)
	if err != nil {
		return nodeResult{}, err
	}
	work := float64(in.logicalRows()) * costUDORow
	schema := impl.OutSchema(in.table.Schema)
	if byPosition {
		n := in.len()
		cells := make([]data.Value, n)
		right := &data.Table{Schema: schema[len(in.table.Schema):], Rows: make([]data.Row, n)}
		out := nodeResult{table: in.table, right: right, pos: make([]int32, 2*n), shape: pairs, mult: in.mult, bytes: in.bytes}
		for i := range cells {
			at := in.at(i)
			cells[i] = impl.Cell(in.table.Rows[at], ex.Ctx)
			right.Rows[i] = cells[i : i+1 : i+1]
			out.pos[2*i], out.pos[2*i+1] = int32(at), int32(i)
			out.bytes += cells[i].ByteSize()
		}
		return ex.finish(NodeStat{Node: x, Work: work}, out), nil
	}
	out := data.NewTable(schema)
	// One output row per input row is the common shape; a UDO that emits
	// more only outgrows the hint, one that clones fewer rows than it reads
	// leaves the rest of a chunk unused (data.Slab.Expect).
	out.Rows = make([]data.Row, 0, in.table.NumRows())
	ex.Ctx.ExpectRows(in.table.NumRows())
	emit := out.Append
	for _, row := range in.table.Rows {
		impl.Apply(row, emit, ex.Ctx)
	}
	return ex.finish(NodeStat{Node: x, Work: work}, produced(out, in.mult)), nil
}

func (ex *Executor) evalSample(x *plan.Sample) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	out := data.NewTable(in.table.Schema)
	threshold := uint64(x.Percent / 100 * float64(1<<32))
	// A row's FNV hash reads each cell's String() rendering, streamed through
	// one buffer by data.AppendValue.
	var buf [96]byte
	for _, row := range in.table.Rows {
		h := data.FNVOffset
		for _, v := range row {
			h = data.FNV64a(h, data.AppendValue(buf[:0], v))
		}
		// Finalize: FNV avalanches poorly on short inputs, so mix before
		// thresholding to keep the sample unbiased.
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
		if (h>>32)%(1<<32) < threshold {
			out.Append(row)
		}
	}
	work := float64(in.logicalRows()) * costSampleRow
	return ex.finish(NodeStat{Node: x, Work: work}, produced(out, in.mult)), nil
}

// evalSort orders its input's rows, stably, by the keys. Each key is
// evaluated once per row, in row order, before any comparison, so a
// nondeterministic key such as RANDOM() draws one value a row, as it would
// in a projection, and the comparator stays consistent.
func (ex *Executor) evalSort(x *plan.Sort) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	rows, nk := in.table.Rows, len(x.Keys)
	keys := make([]data.Value, len(rows)*nk)
	idx := make([]int32, len(rows))
	for i, row := range rows {
		idx[i] = int32(i)
		for j, k := range x.Keys {
			keys[i*nk+j] = k.Eval(row, ex.Ctx)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[int(idx[a])*nk:], keys[int(idx[b])*nk:]
		for j := range x.Keys {
			cmp := ka[j].Compare(kb[j])
			if x.Desc[j] {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	out := data.NewTable(in.table.Schema)
	out.Rows = make([]data.Row, len(rows))
	for i, j := range idx {
		out.Rows[i] = rows[j]
	}
	res := produced(out, in.mult)
	n := float64(res.logicalRows())
	return ex.finish(NodeStat{Node: x, Work: n * costOrderRow * log2(n)}, res), nil
}

func (ex *Executor) evalSpool(x *plan.Spool) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	lb := in.logicalBytes()
	writeWork := float64(lb) * costWriteByte
	if ex.Views != nil && x.StrictSig != "" {
		if ex.Faults.Enabled(fault.SpoolWrite) &&
			ex.Faults.Should(fault.SpoolWrite, ex.JobID+"|"+x.StrictSig) {
			// Injected materialization failure: the write was attempted (its
			// work is still charged) but the artifact never lands. The job
			// carries on — only the view is lost: SealAt finds nothing
			// materialized, and the engine abandons the staged signature.
			if ex.Trace != nil {
				ex.Trace.Event("spool.write.failed", fmt.Sprintf("sig=%s reason=injected", signature.Sig(x.StrictSig).Short()))
			}
		} else if err := ex.Views.Materialize(signature.Sig(x.StrictSig), x.Path, x.VC, in.table, in.mult); err != nil {
			return nodeResult{}, fmt.Errorf("exec: materializing view: %w", err)
		}
	}
	ex.record(NodeStat{Node: x, RowsOut: in.logicalRows(), BytesOut: lb, Work: writeWork})
	return in, nil
}

func (ex *Executor) evalOutput(x *plan.Output) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	lb := in.logicalBytes()
	work := float64(lb) * costWriteByte
	ex.record(NodeStat{Node: x, RowsOut: in.logicalRows(), BytesOut: lb, Work: work})
	return in, nil
}

// log2 feeds the n·log(n) cost terms. Inputs below 2 — including 0, negative
// row counts from degenerate multipliers, and NaN (for which `x < 2` is
// false, so a plain clamp would leak it through math.Log2 and poison every
// downstream Work total) — all clamp to 1.
func log2(x float64) float64 {
	if !(x >= 2) {
		return 1
	}
	return math.Log2(x)
}

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
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

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

// NodeStat records what one operator did during a run. Rows/Bytes/Work are
// logical (scale-multiplied) quantities.
type NodeStat struct {
	Node     plan.Node
	Op       string
	Algo     plan.JoinAlgo // joins only
	RowsOut  int64
	BytesOut int64
	Work     float64
	IORead   int64 // logical bytes read from stable storage (scans + views)
	// Batches counts the vectorized batches this operator processed (0 when
	// the operator ran on the row-at-a-time path). Accounting only — it is
	// never rendered into traces or goldens.
	Batches int64
}

// RunResult is the outcome of executing one plan.
type RunResult struct {
	Table *data.Table
	Stats []NodeStat
	// TotalWork is the job's total compute in container-seconds, including
	// materialization overhead.
	TotalWork float64
	// InputBytes counts logical bytes read from base datasets only.
	InputBytes int64
	// ViewBytes counts logical bytes read from materialized views.
	ViewBytes int64
	// TotalRead includes inputs, views, and intermediate exchange reads.
	TotalRead int64
	// SpoolWork is the portion of TotalWork spent writing views; the cluster
	// simulator runs it as a parallel stage off the critical path.
	SpoolWork float64
	// CacheHits counts subexpressions served from the executor result cache.
	CacheHits int
	// ReuseFallbacks counts ViewScans whose artifact could not be read
	// (genuinely missing or fault-injected) and were transparently recomputed
	// from their Fallback subexpression.
	ReuseFallbacks int
	// SpoolWriteFailures counts Spool materializations that failed
	// (fault-injected); the job continues and the staged view is left for the
	// engine to abandon.
	SpoolWriteFailures int
	// TotalBatches sums NodeStat.Batches across operators (replayed cache
	// entries included), exposing how much of the plan ran vectorized.
	TotalBatches int64
	// FallbackSigs lists the strict signature of every ViewScan counted in
	// ReuseFallbacks, in evaluation order — the guard layer correlates them
	// with the optimizer's matched views to charge forfeited savings to the
	// right circuit breaker.
	FallbackSigs []signature.Sig
}

// CacheEntry memoizes the result of a subexpression for replay across
// identical executions (used by the production-window simulator so that
// repeated identical jobs don't recompute — the accounting is still charged
// in full).
type CacheEntry struct {
	Table *data.Table
	// Bytes is Table.ByteSize(), measured once by the producing operator.
	Bytes      int64
	Mult       float64
	Stats      []NodeStat
	InputBytes int64
	ViewBytes  int64
	TotalRead  int64
}

// DefaultCacheEntries bounds the result cache when no explicit limit is
// given. It is deliberately generous — eviction is a memory-safety backstop
// for long simulations, not a tuning knob — so bounded behavior only differs
// from the historical unbounded cache on workloads with >64k distinct
// subexpression signatures.
const DefaultCacheEntries = 65536

// Cache is a strict-signature-keyed result cache with deterministic LRU
// eviction. It is safe for concurrent use: many executors (one per in-flight
// job) share one cache, and identical subexpressions racing to populate an
// entry resolve first-writer-wins, which is sound because equal physical
// signatures imply byte-identical results. Eviction order is the exact
// least-recently-used order of Get/Put calls, so single-threaded runs evict
// deterministically; eviction only ever forces a recompute (identical bytes),
// never a wrong result.
type Cache struct {
	mu    sync.Mutex
	m     map[signature.Sig]*lruEntry
	head  *lruEntry // most recently used
	tail  *lruEntry // least recently used
	limit int       // ≤0 means unbounded
	reg   *obs.Registry
}

type lruEntry struct {
	sig        signature.Sig
	entry      *CacheEntry
	prev, next *lruEntry
}

// NewCache creates an empty cache bounded at DefaultCacheEntries.
func NewCache() *Cache { return NewCacheWithLimit(DefaultCacheEntries) }

// NewCacheWithLimit creates an empty cache holding at most limit entries
// (limit ≤ 0 disables eviction).
func NewCacheWithLimit(limit int) *Cache {
	return &Cache{m: make(map[signature.Sig]*lruEntry), limit: limit}
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

// Get returns the entry for a physical signature, if present, marking it most
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
	return e.entry, true
}

// Put stores an entry unless one already exists (first writer wins, keeping
// replayed accounting stable across concurrent producers), evicting the
// least-recently-used entries when the bound is exceeded.
func (c *Cache) Put(sig signature.Sig, e *CacheEntry) {
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
	if c.limit <= 0 {
		return
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
	Views   ViewStore                   // nil disables Spool/ViewScan handling
	Cache   *Cache                      // nil disables memoization
	SigMap  map[plan.Node]signature.Sig // physical signatures per node (the cache keys)
	Ctx     *plan.EvalContext
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

	res RunResult
	// spoolTainted marks plan nodes whose subtree contains a Spool; those
	// subtrees carry a materialization side effect and bypass the result
	// cache entirely.
	spoolTainted map[plan.Node]bool
}

// markSpoolTainted records every node whose subtree contains a Spool. A
// cached replay of such a subtree would reproduce the accounting but skip the
// view write, leaving a staged view that never materializes — so the Spool
// and all its ancestors must always execute. Spool-free subtrees (including
// the Spool's own child) stay cacheable, so a replayed build remains cheap.
func markSpoolTainted(root plan.Node, out map[plan.Node]bool) bool {
	tainted := false
	if _, ok := root.(*plan.Spool); ok {
		tainted = true
	}
	var buf [2]plan.Node
	for _, c := range plan.Inputs(root, &buf) {
		if markSpoolTainted(c, out) {
			tainted = true
		}
	}
	if tainted {
		out[root] = true
	}
	return tainted
}

// nodeResult is one operator's output. bytes is table.ByteSize(), measured
// once by the operator that produced the table and carried to every consumer
// that accounts it (exchange reads, spool and output writes, cache replays).
//
// dropped, when not 0, marks a join built for a parent that reads only some
// of its columns (evalReading): the table holds the logical columns not in
// dropped, in order, and nothing else. bytes stays the logical width's.
type nodeResult struct {
	table   *data.Table
	mult    float64
	bytes   int64
	dropped uint64
}

// allColumns asks an operator for every column of its output.
const allColumns = ^uint64(0)

// addReads adds the columns e references to set. A column outside [0, 64)
// makes the set allColumns, which absorbs every later addition; so does a
// Call, which the kernels never compile: its parent runs the row loop, which
// would only widen narrowed rows again.
func addReads(set uint64, e plan.Expr) uint64 {
	switch x := e.(type) {
	case *plan.ColRef:
		if x.Index < 0 || x.Index >= 64 {
			return allColumns
		}
		return set | 1<<x.Index
	case *plan.Binary:
		return addReads(addReads(set, x.L), x.R)
	case *plan.Unary:
		return addReads(set, x.E)
	case *plan.Const, *plan.Param:
		return set
	}
	return allColumns
}

// readSet is the set of columns exprs reference, for a parent running on the
// kernels; the row loops read every column, so they stay the unnarrowed
// reference.
func (ex *Executor) readSet(exprs []plan.Expr) uint64 {
	if !ex.Vectorized {
		return allColumns
	}
	var set uint64
	for _, e := range exprs {
		set = addReads(set, e)
	}
	return set
}

// rows returns the table's rows at logical width, for a parent's row loop:
// a narrowed join's rows are widened, NULL in the columns nothing reads.
func (r nodeResult) rows() []data.Row {
	if r.dropped == 0 {
		return r.table.Rows
	}
	var slab data.RowSlab
	slab.Expect(len(r.table.Rows))
	width := len(r.table.Schema) + bits.OnesCount64(r.dropped)
	wide := make([]data.Row, len(r.table.Rows))
	for i, row := range r.table.Rows {
		wide[i] = slab.New(width)
		keep := ^r.dropped
		for _, v := range row {
			wide[i][bits.TrailingZeros64(keep)] = v
			keep &= keep - 1
		}
	}
	return wide
}

// produced wraps a freshly built table, sizing it.
func produced(t *data.Table, mult float64) nodeResult {
	return nodeResult{table: t, mult: mult, bytes: t.ByteSize()}
}

func (r nodeResult) logicalBytes() int64 { return int64(float64(r.bytes) * r.mult) }
func (r nodeResult) logicalRows() int64  { return logicalRows(r.table, r.mult) }

// finish records st for the operator that built t, with RowsOut and BytesOut
// filled in from t, and returns t as the operator's result.
func (ex *Executor) finish(st NodeStat, t *data.Table, mult float64) nodeResult {
	out := produced(t, mult)
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
	ex.res = RunResult{}
	ex.spoolTainted = make(map[plan.Node]bool)
	markSpoolTainted(root, ex.spoolTainted)
	r, err := ex.eval(root)
	if err != nil {
		return nil, err
	}
	ex.res.Table = r.table
	for _, s := range ex.res.Stats {
		ex.res.TotalWork += s.Work
	}
	ex.Metrics.Counter("cloudviews_exec_cache_hits_total").Add(float64(ex.res.CacheHits))
	ex.Metrics.Counter("cloudviews_exec_work_seconds_total").Add(ex.res.TotalWork)
	ex.Metrics.Counter("cloudviews_exec_read_bytes_total").Add(float64(ex.res.TotalRead))
	// Fault-related families are created only when they fire, so the metrics
	// export stays byte-identical to seed on fault-free runs.
	if ex.res.ReuseFallbacks > 0 {
		ex.Metrics.Counter("cloudviews_reuse_fallbacks_total").Add(float64(ex.res.ReuseFallbacks))
	}
	return &ex.res, nil
}

func (ex *Executor) record(st NodeStat) {
	ex.res.Stats = append(ex.res.Stats, st)
	ex.res.TotalBatches += st.Batches
}

func logicalRows(t *data.Table, mult float64) int64 {
	return int64(float64(t.NumRows()) * mult)
}

func (ex *Executor) eval(n plan.Node) (nodeResult, error) { return ex.evalReading(n, allColumns) }

// evalReading evaluates n for a parent that reads only the columns in reads.
// A join then builds just those (evalJoin), so only an Aggregate or a Project
// asks for fewer than allColumns, and only of its own child: a Spool, a
// ViewScan's fallback or any other parent takes every column.
func (ex *Executor) evalReading(n plan.Node, reads uint64) (nodeResult, error) {
	// Subtrees containing a Spool bypass the cache (see markSpoolTainted).
	// So do ViewScans while view-read faults are enabled: a cached replay
	// would skip the read entirely and the injection decision (keyed per
	// job and signature) must get a chance to fire.
	tainted := ex.spoolTainted[n]
	if _, isView := n.(*plan.ViewScan); isView && ex.Faults.Enabled(fault.ViewRead) {
		tainted = true
	}

	// Result-cache lookup (physical signature identity ⇒ identical result).
	if !tainted && ex.Cache != nil && ex.SigMap != nil {
		if sig, ok := ex.SigMap[n]; ok {
			if entry, hit := ex.Cache.Get(sig); hit {
				ex.res.CacheHits++
				// Replay the accounting of the cached subtree, remapping each
				// stat onto the corresponding node of THIS plan (the cached
				// subtree is physically identical, so post-order aligns).
				nodes := postOrderNodes(n)
				for i, st := range entry.Stats {
					if len(nodes) == len(entry.Stats) {
						st.Node = nodes[i]
					}
					ex.res.Stats = append(ex.res.Stats, st)
					ex.res.TotalBatches += st.Batches
				}
				ex.res.InputBytes += entry.InputBytes
				ex.res.ViewBytes += entry.ViewBytes
				ex.res.TotalRead += entry.TotalRead
				return nodeResult{table: entry.Table, mult: entry.Mult, bytes: entry.Bytes}, nil
			}
		}
	}

	statsStart := len(ex.res.Stats)
	inputStart, viewStart, readStart := ex.res.InputBytes, ex.res.ViewBytes, ex.res.TotalRead
	fallbackStart := ex.res.ReuseFallbacks

	r, err := ex.evalNode(n, reads)
	if err != nil {
		return nodeResult{}, err
	}

	// A fallback inside this subtree means its recorded accounting reflects
	// recomputation, not a view read — caching it would replay fault costs
	// into healthy jobs, so skip the Put for the whole ancestor chain. A
	// narrowed table is not n's result under its physical signature at all.
	if ex.res.ReuseFallbacks != fallbackStart || r.dropped != 0 {
		tainted = true
	}

	// Populate the cache with the subtree slice (first writer wins).
	if !tainted && ex.Cache != nil && ex.SigMap != nil {
		if sig, ok := ex.SigMap[n]; ok {
			sub := make([]NodeStat, len(ex.res.Stats)-statsStart)
			copy(sub, ex.res.Stats[statsStart:])
			ex.Cache.Put(sig, &CacheEntry{
				Table:      r.table,
				Bytes:      r.bytes,
				Mult:       r.mult,
				Stats:      sub,
				InputBytes: ex.res.InputBytes - inputStart,
				ViewBytes:  ex.res.ViewBytes - viewStart,
				TotalRead:  ex.res.TotalRead - readStart,
			})
		}
	}
	return r, nil
}

// postOrderNodes lists the subtree's nodes in execution-recording order
// (children left to right, then the node itself) — the order NodeStats are
// appended during a real run.
func postOrderNodes(n plan.Node) []plan.Node {
	out := make([]plan.Node, 0, plan.CountNodes(n))
	var rec func(m plan.Node)
	rec = func(m plan.Node) {
		var buf [2]plan.Node
		for _, c := range plan.Inputs(m, &buf) {
			rec(c)
		}
		out = append(out, m)
	}
	rec(n)
	return out
}

func (ex *Executor) evalNode(n plan.Node, reads uint64) (nodeResult, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return ex.evalScan(x)
	case *plan.ViewScan:
		return ex.evalViewScan(x)
	case *plan.Filter:
		return ex.evalFilter(x)
	case *plan.Project:
		return ex.evalProject(x)
	case *plan.Join:
		return ex.evalJoin(x, reads)
	case *plan.Aggregate:
		return ex.evalAggregate(x)
	case *plan.Union:
		return ex.evalUnion(x)
	case *plan.UDO:
		return ex.evalUDO(x)
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
	mult := ds.EffectiveScale()
	out := produced(ver.Table, mult)
	lb, rows := out.logicalBytes(), out.logicalRows()
	work := float64(rows)*costScanRow + float64(lb)*costReadByte
	ex.record(NodeStat{Node: x, Op: "Scan", RowsOut: rows, BytesOut: lb, Work: work, IORead: lb})
	ex.res.InputBytes += lb
	ex.res.TotalRead += lb
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
			ex.res.ReuseFallbacks++
			ex.res.FallbackSigs = append(ex.res.FallbackSigs, sig)
			return ex.eval(x.Fallback)
		}
		return nodeResult{}, fmt.Errorf("exec: view %s unavailable", sig.Short())
	}
	out := produced(t, mult)
	lb, rows := out.logicalBytes(), out.logicalRows()
	work := float64(rows)*costScanRow + float64(lb)*costReadByte
	ex.record(NodeStat{Node: x, Op: "ViewScan", RowsOut: rows, BytesOut: lb, Work: work, IORead: lb})
	ex.res.ViewBytes += lb
	ex.res.TotalRead += lb
	return out, nil
}

func (ex *Executor) evalFilter(x *plan.Filter) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	out := data.NewTable(in.table.Schema)
	batches, ok := ex.vecFilter(in.table, x.Pred, out)
	if !ok {
		for _, row := range in.table.Rows {
			if v := x.Pred.Eval(row, ex.Ctx); v.Kind == data.KindBool && v.B {
				out.Append(row)
			}
		}
	}
	work := float64(in.logicalRows()) * costFilterRow
	return ex.finish(NodeStat{Node: x, Op: "Filter", Work: work, Batches: batches}, out, in.mult), nil
}

func (ex *Executor) evalProject(x *plan.Project) (nodeResult, error) {
	in, err := ex.evalReading(x.Child, ex.readSet(x.Exprs))
	if err != nil {
		return nodeResult{}, err
	}
	out := data.NewTable(x.Schema())
	batches, ok := ex.vecProject(in, x.Exprs, out)
	if !ok {
		var slab data.RowSlab
		slab.Expect(in.table.NumRows())
		out.Rows = make([]data.Row, 0, in.table.NumRows())
		for _, row := range in.rows() {
			nr := slab.New(len(x.Exprs))
			for i, e := range x.Exprs {
				nr[i] = e.Eval(row, ex.Ctx)
			}
			out.Append(nr)
		}
	}
	work := float64(in.logicalRows()) * costProjectRow * float64(max(1, len(x.Exprs)))
	return ex.finish(NodeStat{Node: x, Op: "Project", Work: work, Batches: batches}, out, in.mult), nil
}

// joinKey builds the hash key for a row under the given key expressions,
// using the collision-free length-prefixed encoding (see keys.go).
func (ex *Executor) joinKey(row data.Row, keys []plan.Expr) string {
	var buf [64]byte
	return string(ex.appendJoinKey(buf[:0], row, keys))
}

func (ex *Executor) appendJoinKey(dst []byte, row data.Row, keys []plan.Expr) []byte {
	for _, k := range keys {
		dst = appendKeyValue(dst, k.Eval(row, ex.Ctx))
	}
	return dst
}

// rowJoinKeys is vecJoinKeys on the row loop: joinKey of every row of t, in
// row order, packed one string per batchSize rows.
func (ex *Executor) rowJoinKeys(t *data.Table, keys []plan.Expr, dst *[]string, pack *keyPacker) {
	out := sized(*dst, len(t.Rows))
	*dst = out
	for lo := 0; lo < len(out); lo += batchSize {
		hi := min(lo+batchSize, len(out))
		for _, row := range t.Rows[lo:hi] {
			pack.buf = ex.appendJoinKey(pack.buf, row, keys)
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

// orderedJoinKey is the merge-join variant: collision-free AND order-
// preserving for escape-free values, so merge-join emission order matches
// the historical encoding byte-for-byte (see keys.go).
func orderedJoinKey(row data.Row, keys []plan.Expr, ctx *plan.EvalContext) string {
	var buf [64]byte
	dst := buf[:0]
	for _, k := range keys {
		dst = appendOrderedKeyValue(dst, k.Eval(row, ctx))
	}
	return string(dst)
}

// joinScratch is everything a join borrows while it probes. The probe only
// records which pairs it keeps; the output table, the one thing the join
// allocates to return, is built from them afterwards at its exact size and
// aliases nothing here. The scratch goes back to joinScratches when evalJoin
// returns, wiped of strings and rows; a new one has room for a window of keys.
type joinScratch struct {
	pairs []int32 // (left, right) row indices of the pairs kept, in emission order
	side  [2]joinSide
	next  []int32 // hash join: the build side's chains
	pack  keyPacker
	probe data.Row // the pair the residual is being tested on
}

// joinSide is one input's key per row and, for a merge join, its rows sorted by key.
type joinSide struct {
	keys  []string
	order []int32
}

var joinScratches = sync.Pool{New: func() any { return &joinScratch{pack: keyPacker{buf: make([]byte, 0, 16*batchSize)}} }}

func (j *joinScratch) release() {
	if poisonReleased {
		fill(j.pairs[:cap(j.pairs)], -1)
	}
	clear(j.side[0].keys)
	clear(j.side[1].keys)
	clear(j.probe[:cap(j.probe)])
	j.pairs = j.pairs[:0]
	joinScratches.Put(j)
}

// sized returns s at length n, reusing its array when that is long enough;
// the caller writes every element.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// evalJoin joins x's inputs, building only the columns in reads.
func (ex *Executor) evalJoin(x *plan.Join, reads uint64) (nodeResult, error) {
	l, err := ex.eval(x.L)
	if err != nil {
		return nodeResult{}, err
	}
	r, err := ex.eval(x.R)
	if err != nil {
		return nodeResult{}, err
	}
	// Exchange: both inputs are shuffled/read by the join stage.
	ex.res.TotalRead += l.logicalBytes() + r.logicalBytes()

	algo := x.Algo
	if algo == plan.JoinAuto {
		switch {
		case len(x.LeftKeys) == 0:
			algo = plan.JoinLoop
		case min(l.table.NumRows(), r.table.NumRows()) <= 64:
			algo = plan.JoinLoop
		default:
			algo = plan.JoinHash
		}
	}
	mult := math.Max(l.mult, r.mult)
	lRows, rRows := float64(l.logicalRows()), float64(r.logicalRows())
	lt, rt := l.table.Rows, r.table.Rows
	var work float64

	js := joinScratches.Get().(*joinScratch)
	defer js.release()
	if js.pairs == nil { // a new scratch: most joins keep about a pair per row of the larger input
		js.pairs = make([]int32, 0, 2*max(len(lt), len(rt)))
	}
	// emit keeps the pair (li, ri) unless the residual rejects it.
	emit := func(li, ri int) {
		if x.Residual != nil {
			js.probe = append(append(js.probe[:0], lt[li]...), rt[ri]...)
			if v := x.Residual.Eval(js.probe, ex.Ctx); v.Kind != data.KindBool || !v.B {
				return
			}
		}
		js.pairs = append(js.pairs, int32(li), int32(ri))
	}

	var batches int64
	switch algo {
	case plan.JoinHash:
		lb, lok := ex.vecJoinKeys(l.table, x.LeftKeys, &js.side[0].keys, &js.pack)
		rb, rok := ex.vecJoinKeys(r.table, x.RightKeys, &js.side[1].keys, &js.pack)
		batches = lb + rb
		if !rok {
			ex.rowJoinKeys(r.table, x.RightKeys, &js.side[1].keys, &js.pack)
		}
		lKeys, rKeys := js.side[0].keys, js.side[1].keys
		// The build table is two flat arrays instead of a row slice per
		// distinct key: head[k] is one past the index of the first right row
		// with key k, next[i] one past the following row with row i's key, and
		// 0 — a map miss, an untouched slot — ends a chain. Linking from the
		// last row backwards leaves every chain in build order, the order the
		// probe must emit in.
		head := make(map[string]int32, len(rKeys))
		js.next = sized(js.next, len(rKeys))
		next := js.next
		for ri := len(rKeys) - 1; ri >= 0; ri-- {
			next[ri] = head[rKeys[ri]]
			head[rKeys[ri]] = int32(ri + 1)
		}
		var buf [64]byte
		for li, lr := range lt {
			var ri int32
			if lok {
				ri = head[lKeys[li]]
			} else {
				ri = head[string(ex.appendJoinKey(buf[:0], lr, x.LeftKeys))]
			}
			for ; ri != 0; ri = next[ri-1] {
				emit(li, int(ri-1))
			}
		}
		work = (lRows + rRows) * costHashRow

	case plan.JoinMerge:
		js.side[0].sortByKeys(l.table, x.LeftKeys, ex.Ctx)
		js.side[1].sortByKeys(r.table, x.RightKeys, ex.Ctx)
		mergeJoin(&js.side[0], &js.side[1], emit)
		sortWork := lRows*costSortRow*log2(lRows) + rRows*costSortRow*log2(rRows)
		work = (lRows+rRows)*costMergeRow + sortWork

	case plan.JoinLoop:
		if len(x.LeftKeys) == 0 {
			for li := range lt {
				for ri := range rt {
					emit(li, ri)
				}
			}
		} else if rb, rok := ex.vecJoinKeys(r.table, x.RightKeys, &js.side[1].keys, &js.pack); rok {
			// Hoisting the inner-side key computation out of the O(n·m) pair
			// loop changes no output: key equality is unchanged, only the
			// per-pair re-evaluation is gone.
			lb, lok := ex.vecJoinKeys(l.table, x.LeftKeys, &js.side[0].keys, &js.pack)
			batches = lb + rb
			lKeys, rKeys := js.side[0].keys, js.side[1].keys
			for li, lr := range lt {
				var lk string
				if lok {
					lk = lKeys[li]
				} else {
					lk = ex.joinKey(lr, x.LeftKeys)
				}
				for ri := range rt {
					if lk == rKeys[ri] {
						emit(li, ri)
					}
				}
			}
		} else {
			for li, lr := range lt {
				lk := ex.joinKey(lr, x.LeftKeys)
				for ri, rr := range rt {
					if lk == ex.joinKey(rr, x.RightKeys) {
						emit(li, ri)
					}
				}
			}
		}
		// Broadcast nested-loop: the logical outer streams past a small
		// physical inner copied to every container.
		outer := math.Max(lRows, rRows)
		inner := float64(min(l.table.NumRows(), r.table.NumRows()))
		work = outer * costLoopOuter * (1 + 0.05*inner)
	}

	// Every pair is known: slab and row slice are made once, at the output's
	// size. A row holds the columns the parent reads, in order; bytes is what
	// the whole joined rows would measure.
	out := data.NewTable(x.Schema())
	nl, width := len(l.table.Schema), len(out.Schema)
	var dropped uint64
	if all := uint64(1)<<width - 1; width <= 64 && reads&^all == 0 {
		dropped = all &^ reads
		kept := out.Schema[:0]
		for j, c := range out.Schema {
			if dropped&(1<<j) == 0 {
				kept = append(kept, c)
			}
		}
		out.Schema = kept
	}
	var slab data.RowSlab
	slab.Expect(len(js.pairs) / 2)
	out.Rows = make([]data.Row, 0, len(js.pairs)/2)
	var bytes int64
	for k := 0; k < len(js.pairs); k += 2 {
		lr, rr := lt[js.pairs[k]], rt[js.pairs[k+1]]
		bytes += lr.ByteSize() + rr.ByteSize()
		row := slab.New(len(out.Schema))
		if dropped == 0 {
			copy(row[copy(row, lr):], rr)
		} else {
			keep := ^dropped
			for p := range row {
				if j := bits.TrailingZeros64(keep); j < nl {
					row[p] = lr[j]
				} else {
					row[p] = rr[j-nl]
				}
				keep &= keep - 1
			}
		}
		out.Append(row)
	}
	res := nodeResult{table: out, mult: mult, bytes: bytes, dropped: dropped}
	ex.record(NodeStat{Node: x, Op: "Join", Algo: algo, RowsOut: res.logicalRows(), BytesOut: res.logicalBytes(), Work: work, Batches: batches})
	return res, nil
}

// key is the key of the i-th row in sorted order.
func (s *joinSide) key(i int) string { return s.keys[s.order[i]] }

func (s *joinSide) sortByKeys(t *data.Table, keys []plan.Expr, ctx *plan.EvalContext) {
	s.keys, s.order = sized(s.keys, len(t.Rows)), sized(s.order, len(t.Rows))
	for i, row := range t.Rows {
		s.order[i] = int32(i)
		s.keys[i] = orderedJoinKey(row, keys, ctx)
	}
	slices.SortStableFunc(s.order, func(a, b int32) int { return strings.Compare(s.keys[a], s.keys[b]) })
}

func mergeJoin(l, r *joinSide, emit func(li, ri int)) {
	i, j := 0, 0
	for i < len(l.order) && j < len(r.order) {
		switch {
		case l.key(i) < r.key(j):
			i++
		case l.key(i) > r.key(j):
			j++
		default:
			// Gather the equal run on both sides.
			i2 := i
			for i2 < len(l.order) && l.key(i2) == l.key(i) {
				i2++
			}
			j2 := j
			for j2 < len(r.order) && r.key(j2) == r.key(j) {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					emit(int(l.order[a]), int(r.order[b]))
				}
			}
			i, j = i2, j2
		}
	}
}

func (ex *Executor) evalAggregate(x *plan.Aggregate) (nodeResult, error) {
	reads := ex.readSet(x.GroupBy)
	for _, spec := range x.Aggs {
		if spec.Arg != nil {
			reads = addReads(reads, spec.Arg)
		}
	}
	in, err := ex.evalReading(x.Child, reads)
	if err != nil {
		return nodeResult{}, err
	}
	// Exchange: aggregation shuffles its input.
	ex.res.TotalRead += in.logicalBytes()

	out := data.NewTable(x.Schema())
	groups := newAggTable(x, out.Schema)
	batches, ok := ex.vecAggregate(in, groups)
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
				copy(groups.states[gi].row, vals)
			}
			for i, spec := range x.Aggs {
				if spec.Arg != nil {
					args[i] = spec.Arg.Eval(row, ex.Ctx)
				}
			}
			groups.accumulate(gi, args)
		}
	}
	groups.output(out)

	work := float64(in.logicalRows()) * costAggRow
	// Output multiplicity: grouped outputs don't scale linearly with the
	// logical multiplier — distinct group counts grow sub-linearly. We keep
	// the conservative model of scaling by sqrt(mult).
	outMult := math.Sqrt(in.mult)
	if len(x.GroupBy) == 0 {
		outMult = 1
	}
	return ex.finish(NodeStat{Node: x, Op: "Aggregate", Work: work, Batches: batches}, out, outMult), nil
}

// aggCell is the running state of one aggregate within one group; the zero
// value is the initial state. An aggregate spec has one kind, so a cell holds
// only what its kind reads: count for COUNT and AVG, sum for AVG and a SUM of
// a non-INT argument, and val for MIN and MAX (the extremum, NULL until the
// first value) and for a SUM of an INT argument, which adds in val.I so that
// it is exact rather than rounded through a float64.
type aggCell struct {
	count int64
	sum   float64
	val   data.Value
}

// aggState accumulates one group. row is the group's output row: the group
// values, written when the group is discovered, then one cell per aggregate,
// written by aggTable.output. next and end place the group in its table's
// hash chain and key array.
type aggState struct {
	row   data.Row
	cells []aggCell
	next  int32 // one past the previous group with the same key hash; 0 ends the chain
	end   int32 // the group's key is keys[previous group's end:end]
}

// aggTable is the hash aggregate's group table, filled by the row loop and by
// vecAggregate alike and laid out like the hash join's build table: head maps
// a key hash to the newest group with that hash, each group links to the one
// before it, and every group key (keys.go) sits back to back in keys. Groups
// sit in states in discovery order, which is the output order, and their
// cells and rows are carved from slabs, so opening a group appends to a few
// growing arrays and allocates nothing of its own.
type aggTable struct {
	x      *plan.Aggregate
	schema data.Schema // output schema: a SUM whose column is INT adds exactly
	head   map[uint64]int32
	keys   []byte
	states []aggState
	cells  data.Slab[aggCell]
	rows   data.RowSlab
}

// groupSeed keys the group tables' hashes. Output is in discovery order, so
// no answer depends on it.
var groupSeed = maphash.MakeSeed()

func newAggTable(x *plan.Aggregate, schema data.Schema) *aggTable {
	return &aggTable{x: x, schema: schema, head: make(map[uint64]int32)}
}

// find returns the position of key's group, opening the group if key is new;
// the caller fills a new group's row[:len(GroupBy)].
func (a *aggTable) find(key []byte) (gi int32, isNew bool) {
	return a.findHashed(key, maphash.Bytes(groupSeed, key))
}

// findHashed is find with key's hash given. A chain compares whole keys, so
// groups whose hashes collide stay apart.
func (a *aggTable) findHashed(key []byte, h uint64) (gi int32, isNew bool) {
	newest := a.head[h]
	for g := newest; g != 0; g = a.states[g-1].next {
		if bytes.Equal(a.key(g-1), key) {
			return g - 1, false
		}
	}
	gi = int32(len(a.states))
	a.keys = append(a.keys, key...)
	a.states = append(a.states, aggState{
		row:   a.rows.New(len(a.schema)),
		cells: a.cells.New(len(a.x.Aggs)),
		next:  newest,
		end:   int32(len(a.keys)),
	})
	a.head[h] = gi + 1
	return gi, true
}

// key is group gi's key.
func (a *aggTable) key(gi int32) []byte {
	var start int32
	if gi > 0 {
		start = a.states[gi-1].end
	}
	return a.keys[start:a.states[gi].end]
}

// accumulate folds one input row into group gi. args[i] is the row's value
// of x.Aggs[i].Arg, already evaluated by the caller (the row loop through
// Eval, the kernels through their result columns) and ignored where Arg is
// nil, so both callers share this one body.
func (a *aggTable) accumulate(gi int32, args []data.Value) {
	cells, cols := a.states[gi].cells, a.schema[len(a.x.GroupBy):]
	for i, spec := range a.x.Aggs {
		v := args[i]
		if spec.Arg != nil && v.IsNull() && spec.Kind != plan.AggCount {
			continue
		}
		c := &cells[i]
		switch spec.Kind {
		case plan.AggCount:
			c.count++
		case plan.AggSum:
			if cols[i].Kind == data.KindInt {
				c.val.I += v.AsInt()
			} else {
				c.sum += v.AsFloat()
			}
		case plan.AggAvg:
			c.sum += v.AsFloat()
			c.count++
		case plan.AggMin:
			if c.val.IsNull() || v.Compare(c.val) < 0 {
				c.val = v
			}
		case plan.AggMax:
			if c.val.IsNull() || v.Compare(c.val) > 0 {
				c.val = v
			}
		}
	}
}

// output finishes every group's row and appends them to out in discovery
// order.
func (a *aggTable) output(out *data.Table) {
	out.Rows = make([]data.Row, 0, len(a.states))
	cols := a.schema[len(a.x.GroupBy):]
	for _, st := range a.states {
		res := st.row[len(a.x.GroupBy):]
		for i, spec := range a.x.Aggs {
			c := &st.cells[i]
			switch spec.Kind {
			case plan.AggCount:
				res[i] = data.Int(c.count)
			case plan.AggSum:
				if cols[i].Kind == data.KindInt {
					res[i] = data.Int(c.val.I)
				} else {
					res[i] = data.Float(c.sum)
				}
			case plan.AggAvg:
				if c.count != 0 {
					res[i] = data.Float(c.sum / float64(c.count))
				}
			case plan.AggMin, plan.AggMax:
				res[i] = c.val
			}
		}
		out.Append(st.row)
	}
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
	mult := math.Max(l.mult, r.mult)
	work := float64(logicalRows(out, mult)) * costUnionRow
	return ex.finish(NodeStat{Node: x, Op: "Union", Work: work}, out, mult), nil
}

func (ex *Executor) evalUDO(x *plan.UDO) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	impl, ok := plan.LookupUDO(x.Name)
	if !ok {
		return nodeResult{}, fmt.Errorf("exec: unknown UDO %q", x.Name)
	}
	out := data.NewTable(impl.OutSchema(in.table.Schema))
	// One output row per input row is the common shape; a UDO that emits
	// more only outgrows the hint, one that clones fewer rows than it reads
	// leaves the rest of a chunk unused (data.Slab.Expect).
	out.Rows = make([]data.Row, 0, in.table.NumRows())
	ex.Ctx.ExpectRows(in.table.NumRows())
	emit := out.Append
	for _, row := range in.table.Rows {
		impl.Apply(row, emit, ex.Ctx)
	}
	work := float64(in.logicalRows()) * costUDORow
	return ex.finish(NodeStat{Node: x, Op: "UDO", Work: work}, out, in.mult), nil
}

func (ex *Executor) evalSample(x *plan.Sample) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	out := data.NewTable(in.table.Schema)
	threshold := uint64(x.Percent / 100 * float64(1<<32))
	var batches int64
	if ex.Vectorized {
		batches = ex.vecSample(in.table, threshold, out)
	} else {
		for _, row := range in.table.Rows {
			var h uint64 = 1469598103934665603
			for _, v := range row {
				for _, c := range []byte(v.String()) {
					h = (h ^ uint64(c)) * 1099511628211
				}
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
	}
	work := float64(in.logicalRows()) * costSampleRow
	return ex.finish(NodeStat{Node: x, Op: "Sample", Work: work, Batches: batches}, out, in.mult), nil
}

func (ex *Executor) evalSort(x *plan.Sort) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	out := data.NewTable(in.table.Schema)
	batches, ok := ex.vecSort(in.table, x, out)
	if !ok {
		out.Rows = append(out.Rows, in.table.Rows...)
		sort.SliceStable(out.Rows, func(a, b int) bool {
			for i, k := range x.Keys {
				va := k.Eval(out.Rows[a], ex.Ctx)
				vb := k.Eval(out.Rows[b], ex.Ctx)
				cmp := va.Compare(vb)
				if x.Desc[i] {
					cmp = -cmp
				}
				if cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})
	}
	rows := float64(logicalRows(out, in.mult))
	work := rows * costOrderRow * log2(rows)
	return ex.finish(NodeStat{Node: x, Op: "Sort", Work: work, Batches: batches}, out, in.mult), nil
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
			// carries on — only the view is lost; the engine abandons the
			// staged signature when it sees the failure count.
			ex.Trace.Event("spool.write.failed", fmt.Sprintf("sig=%s reason=injected", signature.Sig(x.StrictSig).Short()))
			ex.res.SpoolWriteFailures++
		} else if err := ex.Views.Materialize(signature.Sig(x.StrictSig), x.Path, x.VC, in.table, in.mult); err != nil {
			return nodeResult{}, fmt.Errorf("exec: materializing view: %w", err)
		}
	}
	ex.record(NodeStat{Node: x, Op: "Spool", RowsOut: in.logicalRows(), BytesOut: lb, Work: writeWork})
	ex.res.SpoolWork += writeWork
	return in, nil
}

func (ex *Executor) evalOutput(x *plan.Output) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	lb := in.logicalBytes()
	work := float64(lb) * costWriteByte
	ex.record(NodeStat{Node: x, Op: "Output", RowsOut: in.logicalRows(), BytesOut: lb, Work: work})
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

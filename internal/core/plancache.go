package core

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"cloudviews/internal/data"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/workload"
)

// DefaultPlanCacheSize bounds the plan cache. Recurring workloads have a small
// template population (the paper's clusters see tens of thousands of templates
// against millions of jobs), so a modest LRU captures nearly all repeats.
const DefaultPlanCacheSize = 512

// planKey identifies one compilable unit: the token-normalized script (so
// whitespace/comment/case-of-keyword variants share an entry), the exact
// parameter bindings, and the runtime version (different runtimes never share
// signatures, so they must not share plans either).
type planKey struct {
	runtime string
	norm    string
	params  string
}

// planEntry caches the job-independent products of one key: what parse, bind
// and optimizer.Prepare derive from the script alone. gen pins the catalog
// generation the entry was built against; any catalog mutation invalidates it
// (binding resolves schemas and dataset versions). Everything after Prepare
// reads the controls, annotations, view store and runtime history, which move
// between submissions, so it is compiled per job and never cached.
// Submissions share an entry without holding the cache lock, so what they
// attach to it after lookup is published through an atomic pointer.
type planEntry struct {
	gen  uint64
	root plan.Node // bound script output (skips parse + bind)

	// prepared is the job-independent half of compiling root: the normalized
	// plan, its signed subexpression enumeration and the job tag. It is a pure
	// function of root and the runtime in the key, and it is never written, so
	// every job that hits the entry compiles from it.
	prepared atomic.Pointer[optimizer.Prepared]

	prev, next *planEntry
	key        planKey
}

// planCache is a bounded LRU over planEntry. A nil *planCache disables
// caching entirely (every method no-ops).
type planCache struct {
	mu         sync.Mutex
	m          map[planKey]*planEntry
	head, tail *planEntry
	limit      int

	// compiles counts the compilations of submissions the cache could key.
	compiles atomic.Uint64
}

func newPlanCache(limit int) *planCache {
	if limit < 0 {
		return nil
	}
	if limit == 0 {
		limit = DefaultPlanCacheSize
	}
	return &planCache{m: make(map[planKey]*planEntry), limit: limit}
}

// planCacheKey derives the cache key for a job input. ok is false when the
// script does not lex (the parse path will report the real error) — or when
// the cache is disabled.
func (c *planCache) planCacheKey(in workload.JobInput) (planKey, bool) {
	if c == nil {
		return planKey{}, false
	}
	norm, ok := sqlparser.NormalizeScript(in.Script)
	if !ok {
		return planKey{}, false
	}
	return planKey{runtime: in.Runtime, norm: norm, params: fingerprintParams(in.Params)}, true
}

// fingerprintParams renders parameter bindings deterministically. Kind and
// value are both significant (Int(1) vs String("1") bind differently).
func fingerprintParams(params map[string]data.Value) string {
	if len(params) == 0 {
		return ""
	}
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		v := params[n]
		sb.WriteString(strconv.Itoa(len(n)))
		sb.WriteByte(':')
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(int(v.Kind)))
		sb.WriteByte(':')
		s := v.String()
		sb.WriteString(strconv.Itoa(len(s)))
		sb.WriteByte(':')
		sb.WriteString(s)
	}
	return sb.String()
}

func (c *planCache) unlink(e *planEntry) {
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

func (c *planCache) pushFront(e *planEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// lookup returns the entry for key if it was built against generation gen.
// A stale entry is dropped eagerly so the subsequent store replaces it.
func (c *planCache) lookup(key planKey, gen uint64) *planEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return nil
	}
	if e.gen != gen {
		c.unlink(e)
		delete(c.m, key)
		return nil
	}
	c.unlink(e)
	c.pushFront(e)
	return e
}

// storeBound records a freshly bound root for key. First writer
// wins under races; the loser's entry is simply not installed.
func (c *planCache) storeBound(key planKey, gen uint64, root plan.Node) *planEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok && e.gen == gen {
		c.unlink(e)
		c.pushFront(e)
		return e
	}
	e := &planEntry{gen: gen, root: root, key: key}
	if old, ok := c.m[key]; ok {
		c.unlink(old)
	}
	c.m[key] = e
	c.pushFront(e)
	for len(c.m) > c.limit && c.tail != nil {
		victim := c.tail
		c.unlink(victim)
		delete(c.m, victim.key)
	}
	return e
}

// stats reports submissions that skipped compilation and submissions that
// compiled. No submission skips it, so hits is always 0 (see
// Engine.PlanCacheStats).
func (c *planCache) stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return 0, c.compiles.Load()
}

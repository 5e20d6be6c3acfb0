package core

import (
	"sync"
	"sync/atomic"

	"cloudviews/internal/data"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/workload"
)

// DefaultPlanCacheSize bounds the plan cache, in templates. It is not enough
// for the paper's run: cvsim -scale 1.0 submits more distinct scripts a day
// than this and revisits each about once a day, LRU's worst case, so 86 % of
// its compiles are cold (measured; ROADMAP item 14 holds the fix).
const DefaultPlanCacheSize = 512

// planKey identifies one template: the token-normalized script (so
// whitespace/comment/case-of-keyword variants share an entry) and the runtime
// version (different runtimes never share signatures, so neither plans).
// Parameter values and dataset versions are what its instances differ in.
type planKey struct {
	runtime string
	norm    string
}

// planInstances is how many instances an entry keeps, overwritten in turn: room
// for the parameter bindings one template runs with between two catalog
// changes (its intra-day runs, each with its own @runStart).
const planInstances = 8

// planInstance is a template's Prepared for one catalog generation and the
// parameter values recorded on it. It serves any submission that reads that
// generation and binds those values, as it stands: a Prepared is never written.
type planInstance struct {
	gen  uint64
	prep *optimizer.Prepared
}

// planEntry caches the job-independent products of one key: what parse, bind
// and optimizer.Prepare derive from the script. template is the first Prepared
// compiled for the key and is never replaced or invalidated: other dataset
// versions, other parameter values and the signatures above them are what
// optimizer.Derive rebuilds from it. Everything after Prepare reads the
// controls, annotations, view store and runtime history, which move between
// submissions, so it is compiled per job and never cached. The entry is read
// and written under the cache lock.
type planEntry struct {
	template  *optimizer.Prepared
	instances [planInstances]planInstance
	cursor    int // the instance the next store overwrites

	prev, next *planEntry
	key        planKey
}

// match returns the instance built at gen with params' values, if any.
func (e *planEntry) match(gen uint64, params map[string]data.Value) *optimizer.Prepared {
	for i := range e.instances {
		if in := &e.instances[i]; in.prep != nil && in.gen == gen && in.prep.BoundTo(params) {
			return in.prep
		}
	}
	return nil
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
	return planKey{runtime: in.Runtime, norm: norm}, true
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

// lookup returns key's template, nil if the script is new, and the instance
// of it built at generation gen with params' values, nil if there is none.
func (c *planCache) lookup(key planKey, gen uint64, params map[string]data.Value) (template, prep *optimizer.Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return nil, nil
	}
	c.unlink(e)
	c.pushFront(e)
	return e.template, e.match(gen, params)
}

// store publishes prep, built at generation gen with params' values, as an
// instance of key's entry, and as its template if the key is new. First writer
// wins under races: the instance to use is returned.
func (c *planCache) store(key planKey, gen uint64, params map[string]data.Value, prep *optimizer.Prepared) *optimizer.Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		e = &planEntry{template: prep, key: key}
		c.m[key] = e
		c.pushFront(e)
		for len(c.m) > c.limit && c.tail != nil {
			victim := c.tail
			c.unlink(victim)
			delete(c.m, victim.key)
		}
	} else if first := e.match(gen, params); first != nil {
		return first
	}
	e.instances[e.cursor] = planInstance{gen: gen, prep: prep}
	e.cursor = (e.cursor + 1) % planInstances
	return prep
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

package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"cloudviews/internal/data"
	"cloudviews/internal/obs"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/workload"
)

// DefaultPlanCacheSize bounds the plan cache, in templates: the smallest power
// of two that holds cvsim -scale 1.0's 1,278 recurring templates with room
// for a day's new scripts (up to 1,923 distinct keys a day), so a template
// is still resident when it recurs the next day. An entry there retains about
// 11 KB (its template and instances), so a full default cache is about 23 MB
// (EXPERIMENTS.md).
const DefaultPlanCacheSize = 2048

// planKeys lends Engine.prepare the buffer a plan-cache key is built in, so a
// lookup allocates nothing: only a stored entry copies its key into a string.
var planKeys = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// maxPooledKey caps the buffers planKeys keeps: generator scripts are at most
// 614 bytes, and one outsize script (cvserve accepts up to 1 MiB) must not
// pin its buffer in the pool.
const maxPooledKey = 64 << 10

// putKeyBuf returns a key buffer to planKeys unless it outgrew maxPooledKey.
func putKeyBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledKey {
		planKeys.Put(buf)
	}
}

// appendKey appends the key of a job input to dst: the runtime version,
// length-prefixed so no runtime/script split reads as another, then the
// token-normalized script (whitespace, comment and keyword-case variants share
// an entry). Different runtimes never share signatures, so neither plans;
// parameter values and dataset versions are what a template's instances differ
// in. ok is false when the script does not lex (the parse path will report
// the real error) — or when the cache is disabled.
func (c *planCache) appendKey(dst []byte, in workload.JobInput) (key []byte, ok bool) {
	if c == nil {
		return dst, false
	}
	dst = binary.AppendUvarint(dst, uint64(len(in.Runtime)))
	dst = append(dst, in.Runtime...)
	return sqlparser.AppendNormalized(dst, in.Script)
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
	key        string
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
	m          map[string]*planEntry
	head, tail *planEntry
	limit      int

	// compiles counts the compilations of submissions the cache could key.
	compiles atomic.Uint64

	// hit, derive and cold count Engine.prepare's lookups by outcome: an
	// instance served as it stands, one optimizer.Derive built from the
	// template, or the front end run. entries is the templates held. All are
	// nil without observability.
	hit, derive, cold *obs.Counter
	entries           *obs.Gauge
}

// setMetrics registers the cache's series with reg, once, so a lookup bumps
// a counter it already holds.
func (c *planCache) setMetrics(reg *obs.Registry) {
	if c == nil {
		return
	}
	c.hit = reg.Counter(`cloudviews_plancache_lookups_total{outcome="hit"}`)
	c.derive = reg.Counter(`cloudviews_plancache_lookups_total{outcome="derive"}`)
	c.cold = reg.Counter(`cloudviews_plancache_lookups_total{outcome="cold"}`)
	c.entries = reg.Gauge("cloudviews_plancache_entries")
}

func newPlanCache(limit int) *planCache {
	if limit < 0 {
		return nil
	}
	if limit == 0 {
		limit = DefaultPlanCacheSize
	}
	return &planCache{m: make(map[string]*planEntry), limit: limit}
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
// of it built at generation gen with params' values, nil if there is none. It
// allocates nothing.
func (c *planCache) lookup(key []byte, gen uint64, params map[string]data.Value) (template, prep *optimizer.Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[string(key)]
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
func (c *planCache) store(key []byte, gen uint64, params map[string]data.Value, prep *optimizer.Prepared) *optimizer.Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[string(key)]
	if !ok {
		e = &planEntry{template: prep, key: string(key)}
		c.m[e.key] = e
		c.pushFront(e)
		for len(c.m) > c.limit && c.tail != nil {
			victim := c.tail
			c.unlink(victim)
			delete(c.m, victim.key)
		}
		c.entries.Set(float64(len(c.m)))
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

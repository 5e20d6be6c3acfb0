// Package catalog implements the dataset catalog of the simulated Cosmos
// store. Datasets ("streams") are written once and read many times: each bulk
// update produces a fresh immutable version identified by a GUID, matching
// the paper's observation that shared datasets are regenerated periodically
// without fine-grained updates. GDPR forget requests are modeled as GUID
// rotations that invalidate everything derived from the affected version
// (paper §4, "Handling GDPR requirements").
package catalog

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloudviews/internal/data"
)

// GUID identifies one immutable version of a dataset.
type GUID string

// Version is one immutable snapshot of a dataset.
type Version struct {
	GUID      GUID
	Dataset   string
	CreatedAt time.Time
	Table     *data.Table
	// Bytes is Table's ByteSize, measured once when the version is
	// published: a published table is never written.
	Bytes int64
	// Forgotten marks versions rotated by a GDPR forget request; readers must
	// not consume them and dependent derived data is invalid.
	Forgotten bool
}

// Dataset is a named stream with a history of versions. Dataset pointers
// escape the catalog lock (Dataset, Latest), so the mutable metadata fields
// are atomics: executors read the scale factor on every scan while admin
// calls may be rescaling concurrently.
type Dataset struct {
	Name     string
	Schema   data.Schema
	versions []*Version // oldest first; guarded by the catalog lock

	// producer optionally records the pipeline that cooks this dataset, for
	// lineage analyses.
	producer atomic.Pointer[string]
	// scale holds math.Float64bits of the logical size multiplier used by
	// the execution simulator: tables are materialized small, but work and
	// IO accounting are multiplied by this factor to emulate
	// production-scale inputs without production-scale memory. 0 means 1.
	scale atomic.Uint64
}

// EffectiveScale returns the scale factor, defaulting to 1. Safe for
// concurrent use.
func (d *Dataset) EffectiveScale() float64 {
	f := math.Float64frombits(d.scale.Load())
	if f <= 0 {
		return 1
	}
	return f
}

// Producer returns the pipeline that cooks this dataset ("" = ingested raw).
// Safe for concurrent use.
func (d *Dataset) Producer() string {
	if p := d.producer.Load(); p != nil {
		return *p
	}
	return ""
}

// Catalog is the thread-safe dataset registry.
type Catalog struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
	// byGUID finds every version ever published, forgotten ones included, so
	// resolving a scan costs the same on day 300 as on day 1.
	byGUID  map[GUID]*Version
	guidSeq uint64
	// gen counts catalog mutations (Define, BulkUpdate, Forget, scale or
	// producer changes). The plan cache stamps each instance of a template
	// with it: after a bump, the versions and cardinalities the instance
	// read may be stale, and the template is carried over again.
	gen atomic.Uint64
}

// Generation returns a counter that increases on every catalog mutation.
// Equal generations guarantee the catalog state a cached plan was compiled
// against is still current.
func (c *Catalog) Generation() uint64 { return c.gen.Load() }

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{datasets: make(map[string]*Dataset), byGUID: make(map[GUID]*Version)}
}

// Define registers a dataset with a schema. Defining an existing name with an
// identical schema is a no-op; a conflicting schema is an error.
func (c *Catalog) Define(name string, schema data.Schema) (*Dataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ds, ok := c.datasets[name]; ok {
		if !ds.Schema.Equal(schema) {
			return nil, fmt.Errorf("catalog: dataset %q already defined with different schema", name)
		}
		return ds, nil
	}
	ds := &Dataset{Name: name, Schema: schema.Clone()}
	c.datasets[name] = ds
	c.gen.Add(1)
	return ds, nil
}

// SetScaleFactor sets the logical size multiplier for a dataset.
func (c *Catalog) SetScaleFactor(name string, f float64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if ds, ok := c.datasets[name]; ok {
		ds.scale.Store(math.Float64bits(f))
		c.gen.Add(1)
	}
}

// SetProducer records the pipeline that produces the dataset.
func (c *Catalog) SetProducer(name, producer string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if ds, ok := c.datasets[name]; ok {
		ds.producer.Store(&producer)
		c.gen.Add(1)
	}
}

// Dataset looks up a dataset by name.
func (c *Catalog) Dataset(name string) (*Dataset, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ds, ok := c.datasets[name]
	return ds, ok
}

// Names returns all dataset names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.datasets))
	for n := range c.datasets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// BulkUpdate publishes a new immutable version of the dataset and returns its
// GUID. The table's schema must match the dataset schema. The catalog keeps
// table itself, and every scan of the version reads it in place: from this
// call on nobody — the caller included — writes to the table or its rows.
func (c *Catalog) BulkUpdate(name string, at time.Time, table *data.Table) (GUID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, ok := c.datasets[name]
	if !ok {
		return "", fmt.Errorf("catalog: unknown dataset %q", name)
	}
	if !ds.Schema.Equal(table.Schema) {
		return "", fmt.Errorf("catalog: bulk update schema mismatch for %q: have (%s), want (%s)",
			name, table.Schema, ds.Schema)
	}
	return c.publishLocked(ds, at, table), nil
}

// publishLocked appends a new version of ds holding table and returns its
// GUID. Caller holds the write lock.
func (c *Catalog) publishLocked(ds *Dataset, at time.Time, table *data.Table) GUID {
	c.guidSeq++
	v := &Version{
		GUID:      GUID(fmt.Sprintf("guid-%s-%08x", ds.Name, c.guidSeq)),
		Dataset:   ds.Name,
		CreatedAt: at,
		Table:     table,
		Bytes:     table.ByteSize(),
	}
	ds.versions = append(ds.versions, v)
	c.byGUID[v.GUID] = v
	c.gen.Add(1)
	return v.GUID
}

// Latest returns the newest non-forgotten version of the dataset.
func (c *Catalog) Latest(name string) (*Version, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ds, ok := c.datasets[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown dataset %q", name)
	}
	for i := len(ds.versions) - 1; i >= 0; i-- {
		if !ds.versions[i].Forgotten {
			return ds.versions[i], nil
		}
	}
	return nil, fmt.Errorf("catalog: dataset %q has no readable versions", name)
}

// VersionByGUID resolves a specific version.
func (c *Catalog) VersionByGUID(g GUID) (*Version, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if v, ok := c.byGUID[g]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("catalog: unknown version %q", g)
}

// Window returns up to n most recent non-forgotten versions (newest first),
// modeling sliding-window inputs such as "last seven days".
func (c *Catalog) Window(name string, n int) ([]*Version, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ds, ok := c.datasets[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown dataset %q", name)
	}
	out := make([]*Version, 0, n)
	for i := len(ds.versions) - 1; i >= 0 && len(out) < n; i-- {
		if !ds.versions[i].Forgotten {
			out = append(out, ds.versions[i])
		}
	}
	return out, nil
}

// Forget executes a GDPR forget request against a specific version: the
// version is rotated to a new GUID with the filtered table, and the old GUID
// becomes unreadable. Returns the replacement GUID. keep decides which rows
// survive.
func (c *Catalog) Forget(g GUID, at time.Time, keep func(data.Row) bool) (GUID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.byGUID[g]
	if !ok {
		return "", fmt.Errorf("catalog: unknown version %q", g)
	}
	if v.Forgotten {
		return "", fmt.Errorf("catalog: version %q already forgotten", g)
	}
	v.Forgotten = true
	filtered := data.NewTable(v.Table.Schema)
	for _, r := range v.Table.Rows {
		if keep(r) {
			filtered.Append(r)
		}
	}
	return c.publishLocked(c.datasets[v.Dataset], at, filtered), nil
}

// VersionCount returns the number of versions (including forgotten) of a
// dataset; zero if unknown.
func (c *Catalog) VersionCount(name string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ds, ok := c.datasets[name]
	if !ok {
		return 0
	}
	return len(ds.versions)
}

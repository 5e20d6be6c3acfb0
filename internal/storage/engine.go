package storage

import (
	"time"

	"cloudviews/internal/data"
	"cloudviews/internal/obs"
	"cloudviews/internal/signature"
)

// Engine is the pluggable view-store contract the rest of the system
// programs against: the full lifecycle (stage → materialize → seal →
// fetch/reuse → expire/abandon/purge) plus the accounting and audit surface
// the chaos and telemetry layers rely on. The in-memory *Store is the default
// implementation; internal/storage/durable adds a file-backed engine with
// WAL + snapshot crash recovery. Every implementation must be safe for
// concurrent use and must derive all time from the injected clock (never the
// wall clock), so simulated-time determinism survives the swap.
//
// Reading is a read: a view's lifecycle state is a pure function of (entry,
// clock), and no method of the read surface or the accounting surface
// changes, evicts, counts or logs anything. An entry past its TTL is
// physically evicted only by Stage, Materialize and SealAt on its signature
// and by GC; until then every read treats it as gone (Status reports it as
// StateExpired).
type Engine interface {
	// SetNow installs the simulated clock. A durable engine is opened (and
	// recovered) before the owning core engine exists, so the core installs
	// its clock here once both are wired together.
	SetNow(now func() time.Time)
	// SetTTL overrides the view expiry (DefaultTTL when never called).
	SetTTL(ttl time.Duration)
	// SetMetrics registers the engine's lifecycle counters and gauges.
	SetMetrics(r *obs.Registry)
	// PathFor builds the storage path for a view owned by vc. Paths are
	// fresh per incarnation: a signature re-staged after a Purge must get a
	// path distinct from the purged artifact's, so a durable backend can
	// never confuse a new artifact with stale bytes on disk.
	PathFor(vc string, strict signature.Sig) string

	// Lifecycle mutations.
	Stage(strict, recurring signature.Sig, path, vc string)
	Materialize(strict signature.Sig, path, vc string, t *data.Table, mult float64) error
	Seal(strict signature.Sig) bool
	SealAt(strict signature.Sig, t time.Time) bool
	Abandon(strict signature.Sig) bool
	Purge(strict signature.Sig) bool
	PurgeVC(vc string) int
	GC() int

	// Read surface. Status is the one per-signature question: the entry's
	// metadata by value and its state, answered together.
	Fetch(strict signature.Sig) (*data.Table, float64, bool)
	Status(strict signature.Sig) (View, State)
	Views() []*View
	Count() int

	// Accounting and audit.
	UsedBytes(vc string) int64
	PendingViews() int
	AuditBytes() error
	Snapshot() Stats
}

// The in-memory store is the default Engine.
var _ Engine = (*Store)(nil)

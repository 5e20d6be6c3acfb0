// Package storage implements the materialized-view store backing CloudViews.
// Views are throwaway artifacts: they are written once as part of query
// processing (via the Spool operator), sealed early so concurrent-ish
// consumers can start reading before the producing job finishes, expired
// after a fixed TTL (one week in production), and simply recreated whenever
// the underlying shared datasets are bulk-updated (their strict signatures
// change, so the old artifacts stop matching and age out).
//
// One rule governs every read: a view's lifecycle state is a pure function of
// (entry, clock), and asking for it changes nothing. Every accessor treats an
// entry past its TTL as gone, under the shared lock. The entry is physically
// evicted only where the store is being written anyway — Stage, Materialize
// and SealAt on that signature, so it is buildable again the moment its TTL
// passes — and in GC.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cloudviews/internal/data"
	"cloudviews/internal/obs"
	"cloudviews/internal/signature"
)

// DefaultTTL matches the paper's production eviction policy ("our current
// eviction policies expire each of the views after one week of creation").
const DefaultTTL = 7 * 24 * time.Hour

// View is one materialized artifact.
type View struct {
	Strict    signature.Sig
	Recurring signature.Sig
	Path      string
	VC        string // virtual cluster that owns the storage
	Table     *data.Table
	Mult      float64 // logical scale multiplier
	Rows      int64   // logical rows
	Bytes     int64   // logical bytes
	CreatedAt time.Time
	ExpiresAt time.Time
	// Sealed marks the view readable. The job manager seals views early —
	// as soon as the producing subexpression finishes, before the rest of
	// the job completes.
	Sealed bool
	// SealedAt is when the artifact becomes readable; consumers compiling
	// before this instant cannot use it (models the materialization delay
	// that schedule-aware selection must respect).
	SealedAt time.Time
}

// Store is the thread-safe view store. It implements exec.ViewStore.
type Store struct {
	mu    sync.RWMutex
	ttl   time.Duration
	now   func() time.Time
	views map[signature.Sig]*View
	// byVC tracks logical bytes stored per virtual cluster.
	byVC map[string]int64

	// pending maps strict signatures to metadata staged by the optimizer
	// before the executor materializes the bytes.
	pending map[signature.Sig]*View

	// gen counts purge incarnations per signature: PathFor appends the
	// generation after the first purge so a re-staged view never lands on
	// the purged artifact's path (a durable backend must not reuse stale
	// paths on disk).
	gen map[signature.Sig]int64

	// counters
	created   int64
	expired   int64
	purged    int64
	abandoned int64

	// metrics, when wired via SetMetrics; all nil-safe no-ops otherwise.
	metrics    *obs.Registry
	mCreated   *obs.Counter
	mExpired   *obs.Counter
	mPurged    *obs.Counter
	mAbandoned *obs.Counter
}

// NewStore creates a store with the default TTL. The clock function supplies
// the current (simulated) time.
func NewStore(now func() time.Time) *Store {
	return &Store{
		ttl:     DefaultTTL,
		now:     now,
		views:   make(map[signature.Sig]*View),
		byVC:    make(map[string]int64),
		pending: make(map[signature.Sig]*View),
		gen:     make(map[signature.Sig]int64),
	}
}

// SetTTL overrides the view TTL.
func (s *Store) SetTTL(ttl time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ttl = ttl
}

// SetNow replaces the clock function: recovery replays a durable store under a
// record-time clock, then installs the live simulated clock before serving
// traffic.
func (s *Store) SetNow(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// SetMetrics registers the store's lifecycle counters and per-VC byte gauges
// with a registry. Call before serving traffic.
func (s *Store) SetMetrics(r *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = r
	s.mCreated = r.Counter("cloudviews_views_created_total")
	s.mExpired = r.Counter("cloudviews_views_expired_total")
	s.mPurged = r.Counter("cloudviews_views_purged_total")
	s.mAbandoned = r.Counter("cloudviews_views_abandoned_total")
}

// noteBytesLocked refreshes the per-VC byte gauge. Caller holds s.mu.
func (s *Store) noteBytesLocked(vc string) {
	if s.metrics == nil {
		return
	}
	s.metrics.Gauge(`cloudviews_view_bytes{vc="` + vc + `"}`).Set(float64(s.byVC[vc]))
}

// expiredLocked reports whether v is past its TTL at the given instant.
func expiredLocked(v *View, now time.Time) bool {
	return now.After(v.ExpiresAt)
}

// evictExpiredLocked removes an expired view and settles its accounting.
// Caller holds the write lock and has already determined v is expired.
func (s *Store) evictExpiredLocked(strict signature.Sig, v *View) {
	s.byVC[v.VC] -= v.Bytes
	delete(s.views, strict)
	s.expired++
	s.mExpired.Inc()
	s.noteBytesLocked(v.VC)
}

// Stage registers the metadata for a view about to be materialized by a job.
// The optimizer calls this when it inserts a Spool; the executor later calls
// Materialize with the bytes, and the job manager calls Seal. An expired
// entry under the same signature is evicted, not an obstacle: the signature
// becomes buildable again the moment its TTL passes.
func (s *Store) Stage(strict, recurring signature.Sig, path, vc string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, exists := s.views[strict]; exists {
		if !expiredLocked(v, s.now()) {
			return
		}
		s.evictExpiredLocked(strict, v)
	}
	s.pending[strict] = &View{Strict: strict, Recurring: recurring, Path: path, VC: vc}
}

// Materialize stores the bytes of a staged view. Implements exec.ViewStore.
// Unstaged signatures get a bare view record attributed to vc (tests and
// extensions use this path directly); staged views keep the VC they were
// staged with. The store keeps t itself, not a copy: the caller hands over a
// finished table and, like the store, never writes to it again.
func (s *Store) Materialize(strict signature.Sig, path, vc string, t *data.Table, mult float64) error {
	// Sizing walks every cell; t cannot change, so it is done before the lock.
	size := t.ByteSize()
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, exists := s.views[strict]; exists {
		if !expiredLocked(v, s.now()) {
			// Lost race with another job: keep the first artifact.
			return nil
		}
		s.evictExpiredLocked(strict, v)
	}
	v, ok := s.pending[strict]
	if !ok {
		v = &View{Strict: strict, Path: path, VC: vc}
	}
	delete(s.pending, strict)
	now := s.now()
	v.Table = t
	v.Mult = mult
	v.Rows = int64(float64(t.NumRows()) * mult)
	v.Bytes = int64(float64(size) * mult)
	v.CreatedAt = now
	v.ExpiresAt = now.Add(s.ttl)
	s.views[strict] = v
	s.byVC[v.VC] += v.Bytes
	s.created++
	s.mCreated.Inc()
	s.noteBytesLocked(v.VC)
	return nil
}

// Seal marks a view readable immediately. Returns false if the view is
// unknown.
func (s *Store) Seal(strict signature.Sig) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealAtLocked(strict, s.now())
}

// SealAt marks a view readable from t onward — the early-sealing point, when
// the producing subexpression's stage finishes (before its whole job does).
// Returns false if the view is unknown or already expired.
func (s *Store) SealAt(strict signature.Sig, t time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealAtLocked(strict, t)
}

func (s *Store) sealAtLocked(strict signature.Sig, t time.Time) bool {
	v, ok := s.views[strict]
	if !ok {
		return false
	}
	if expiredLocked(v, s.now()) {
		s.evictExpiredLocked(strict, v)
		return false
	}
	v.Sealed = true
	v.SealedAt = t
	return true
}

// Abandon discards a staged or materialized-but-unsealed view whose
// producing job failed, so the signature does not stay in-flight forever.
// Sealed (readable) views are never abandoned. Returns true if an entry was
// removed.
func (s *Store) Abandon(strict signature.Sig) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pending[strict]; ok {
		delete(s.pending, strict)
		s.abandoned++
		s.mAbandoned.Inc()
		return true
	}
	v, ok := s.views[strict]
	if !ok || v.Sealed {
		return false
	}
	s.byVC[v.VC] -= v.Bytes
	delete(s.views, strict)
	s.abandoned++
	s.mAbandoned.Inc()
	s.noteBytesLocked(v.VC)
	return true
}

// Fetch returns a live (sealed, readable, unexpired) view's data. Implements
// exec.ViewStore.
//
// The table returned is the stored artifact itself, shared with every other
// consumer of the view: it is read-only, like every table once the operator
// that built it has returned it (DESIGN.md, "Row storage"). The store never
// writes to a table it holds — Materialize keeps the first artifact, a purge
// or an expiry only drops the store's reference — so a reader may keep using
// a fetched table after the view is gone.
func (s *Store) Fetch(strict signature.Sig) (*data.Table, float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.views[strict]
	if !ok || !stateOf(v, s.now()).Servable() {
		return nil, 0, false
	}
	return v.Table, v.Mult, true
}

// State is a signature's lifecycle position. Its String names are the ones
// the explain layer's decision taxonomy (explain.ReasonForState) keys off.
type State uint8

const (
	StateAbsent   State = iota // no entry
	StatePending               // staged, bytes not materialized yet
	StateUnsealed              // materialized, not sealed
	StateSealing               // sealed at an instant still in the future
	StateLive                  // sealed, readable, within its TTL
	StateExpired               // past its TTL, not yet physically evicted
)

var stateNames = [...]string{"absent", "pending", "unsealed", "sealing", "live", "expired"}

func (st State) String() string { return stateNames[st] }

// Servable reports whether a consumer compiling now can read the view.
func (st State) Servable() bool { return st == StateLive }

// Building reports whether the view is in flight: a producer holds the
// signature — staged, or materialized but not yet readable — so a second
// concurrent job should neither rebuild nor reuse it.
func (st State) Building() bool {
	return st == StatePending || st == StateUnsealed || st == StateSealing
}

// stateOf is the state of a resident view at the given instant.
func stateOf(v *View, now time.Time) State {
	switch {
	case expiredLocked(v, now):
		return StateExpired
	case !v.Sealed:
		return StateUnsealed
	case now.Before(v.SealedAt):
		return StateSealing
	default:
		return StateLive
	}
}

// Status is the store's one per-signature read: the entry's metadata (the
// zero View when there is none) and its lifecycle state at the current
// clock, taken together under the shared lock. It evicts nothing and counts
// nothing. A pending entry carries only what Stage recorded; an expired one
// is returned as it stands until a write or GC removes it.
func (s *Store) Status(strict signature.Sig) (View, State) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v, ok := s.pending[strict]; ok {
		return *v, StatePending
	}
	v, ok := s.views[strict]
	if !ok {
		return View{}, StateAbsent
	}
	return *v, stateOf(v, s.now())
}

// GC removes expired views and returns how many were evicted.
func (s *Store) GC() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	n := 0
	for sig, v := range s.views {
		if expiredLocked(v, now) {
			s.evictExpiredLocked(sig, v)
			n++
		}
	}
	return n
}

// Purge removes a specific view (user-initiated cleanup; the paper notes
// users "can see the CloudViews-generated files ... and even purge views
// whenever necessary").
func (s *Store) Purge(strict signature.Sig) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.views[strict]
	if !ok {
		return false
	}
	s.byVC[v.VC] -= v.Bytes
	delete(s.views, strict)
	s.purged++
	s.gen[strict]++
	s.mPurged.Inc()
	s.noteBytesLocked(v.VC)
	return true
}

// PurgeVC removes every view owned by a virtual cluster (opt-out cleanup).
func (s *Store) PurgeVC(vc string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for sig, v := range s.views {
		if v.VC == vc {
			s.byVC[v.VC] -= v.Bytes
			delete(s.views, sig)
			s.purged++
			s.gen[sig]++
			s.mPurged.Inc()
			n++
		}
	}
	s.noteBytesLocked(vc)
	return n
}

// UsedBytes returns the logical bytes stored for a VC, excluding expired
// views that have not been evicted yet.
func (s *Store) UsedBytes(vc string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	used := s.byVC[vc]
	now := s.now()
	for _, v := range s.views {
		if v.VC == vc && expiredLocked(v, now) {
			used -= v.Bytes
		}
	}
	return used
}

// PendingViews returns the number of signatures staged by the optimizer but
// never materialized or abandoned. After a workload settles it must be zero:
// a leftover entry means some failure path forgot to call Abandon.
func (s *Store) PendingViews() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pending)
}

// AuditBytes cross-checks the per-VC byte ledger against the resident view
// set, returning an error naming the first inconsistency. The chaos suite
// calls this after every fault mix to prove that abandon/expiry paths settle
// the books exactly.
func (s *Store) AuditBytes() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	actual := make(map[string]int64)
	for _, v := range s.views {
		actual[v.VC] += v.Bytes
	}
	for vc, want := range s.byVC {
		if actual[vc] != want {
			return fmt.Errorf("storage: byte ledger for VC %q is %d but resident views hold %d", vc, want, actual[vc])
		}
	}
	for vc, got := range actual {
		if _, ok := s.byVC[vc]; !ok && got != 0 {
			return fmt.Errorf("storage: VC %q holds %d bytes with no ledger entry", vc, got)
		}
	}
	return nil
}

// Count returns the number of live (unexpired) views.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := s.now()
	n := 0
	for _, v := range s.views {
		if !expiredLocked(v, now) {
			n++
		}
	}
	return n
}

// Stats summarizes store activity.
type Stats struct {
	Live      int
	Created   int64
	Expired   int64
	Purged    int64
	Abandoned int64
}

// Snapshot returns store counters. Live excludes expired-but-unevicted views.
func (s *Store) Snapshot() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := s.now()
	live := 0
	for _, v := range s.views {
		if !expiredLocked(v, now) {
			live++
		}
	}
	return Stats{Live: live, Created: s.created, Expired: s.expired, Purged: s.purged, Abandoned: s.abandoned}
}

// Views lists live (unexpired) view metadata sorted by path, for inspection
// tools.
func (s *Store) Views() []*View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := s.now()
	out := make([]*View, 0, len(s.views))
	for _, v := range s.views {
		if expiredLocked(v, now) {
			continue
		}
		cp := *v
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// PathFor builds the storage path for a view, encoding the strict signature
// per the paper's architecture ("encode the strict signature in output
// path"). A signature that has been purged gets a fresh generation-suffixed
// path so the new artifact can never alias the purged one's bytes on disk;
// the first incarnation keeps the historical un-suffixed form. Callers must
// derive the path ONCE (at staging) and thread it through Stage → Spool →
// Materialize rather than recomputing it later.
func (s *Store) PathFor(vc string, strict signature.Sig) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if g := s.gen[strict]; g > 0 {
		return fmt.Sprintf("cloudviews/%s/%s.g%d.ss", vc, strict.Short(), g)
	}
	return PathFor(vc, strict)
}

// PathFor is the generation-zero path format. Prefer Store.PathFor, which
// accounts for purge incarnations.
func PathFor(vc string, strict signature.Sig) string {
	return fmt.Sprintf("cloudviews/%s/%s.ss", vc, strict.Short())
}

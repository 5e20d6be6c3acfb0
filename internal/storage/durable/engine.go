package durable

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"cloudviews/internal/data"
	"cloudviews/internal/fault"
	"cloudviews/internal/obs"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

// defaultSnapshotEvery is how many WAL records accumulate between automatic
// snapshots (snapshot + WAL truncation).
const defaultSnapshotEvery = 512

// options holds the engine's test seams: Open uses the zero value, and only
// this package's tests open with others.
type options struct {
	// snapshotEvery is the record count between automatic snapshots
	// (0 = defaultSnapshotEvery).
	snapshotEvery int
	// sync fsyncs every WAL append (off: the crash model under test is
	// process death, not power loss, and the simulator's workloads are
	// write-heavy).
	sync bool
	// faults enables the durable crash points (DurableCrashAppend,
	// DurableCrashTorn, DurableCrashSnapshot). Nil disables them.
	faults *fault.Injector
}

// RecoveryStats describes what one Open had to do to restore state.
type RecoveryStats struct {
	// SnapshotsLoaded is 1 when a snapshot file was restored.
	SnapshotsLoaded int
	// RecordsReplayed counts WAL records applied past the snapshot
	// watermark.
	RecordsReplayed int
	// TornTailsTruncated is 1 when a torn or corrupt WAL tail was dropped.
	TornTailsTruncated int
	// InFlightAbandoned counts mid-transaction views (staged or unsealed)
	// recovered as abandoned, with their locks released.
	InFlightAbandoned int
	// ViewsRecovered is the number of sealed views restored.
	ViewsRecovered int
}

// Engine is the file-backed view store: a storage.Engine whose every
// mutation is WAL-logged before it is applied, with periodic snapshots and
// log-replay recovery. All methods are safe for concurrent use (one engine
// mutex serializes against the log, preserving WAL order = apply order).
type Engine struct {
	mu   sync.Mutex
	dir  string
	opts options
	mem  *storage.Store
	wal  *walWriter

	seq       uint64 // last assigned record sequence number
	nowFn     func() time.Time
	lastTS    time.Time // clock fallback before SetNow; last record time
	replaying bool
	replayTS  time.Time

	crashed    bool
	crashPoint fault.Point
	closed     bool
	err        error // first WAL I/O failure; surfaced via Materialize and Close

	sinceSnap int
	rec       RecoveryStats

	mAppends   *obs.Counter
	mSnapshots *obs.Counter
}

var _ storage.Engine = (*Engine)(nil)

// Open loads (or creates) the data directory and recovers: snapshot restore,
// WAL replay under record-time clocks, torn-tail truncation, abandonment of
// mid-transaction views, and a fresh snapshot so the next recovery starts
// clean. The returned engine is ready for traffic once SetNow installs the
// live clock.
func Open(dir string) (*Engine, error) { return open(dir, options{}) }

func open(dir string, opts options) (*Engine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating data directory: %w", err)
	}
	if opts.snapshotEvery <= 0 {
		opts.snapshotEvery = defaultSnapshotEvery
	}
	e := &Engine{dir: dir, opts: opts}
	e.mem = storage.NewStore(e.memNow)

	// 1. Snapshot restore.
	st, snapSeq, snapTS, ok, err := loadSnapshotFile(dir)
	if err != nil {
		return nil, err
	}
	if ok {
		e.mem.RestoreState(st)
		e.seq = snapSeq
		e.lastTS = time.Unix(0, snapTS)
		e.rec.SnapshotsLoaded = 1
	}

	// 2. WAL replay. Each record is applied through the same store methods
	// that produced it, under a clock pinned to its logged timestamp, so a
	// write evicts an expired resident exactly when it did live.
	sc, err := scanWAL(dir)
	if err != nil {
		return nil, err
	}
	e.rec.TornTailsTruncated = sc.tornTruncated
	e.replaying = true
	for _, rec := range sc.records {
		if rec.Seq <= snapSeq {
			continue
		}
		e.replayTS = time.Unix(0, rec.TS)
		e.applyRecord(rec)
		e.seq = rec.Seq
		e.lastTS = e.replayTS
		e.rec.RecordsReplayed++
	}
	e.replaying = false

	// 3. Mid-transaction views recover as abandoned: their producing job
	// died with the process, and leaving them staged/unsealed would wedge
	// the signature (and its creation lock) for every later producer.
	for _, sig := range e.mem.InFlightSigs() {
		if e.mem.Abandon(sig) {
			e.rec.InFlightAbandoned++
		}
	}
	e.rec.ViewsRecovered = e.mem.Count()

	// 4. Reset the log: publish a post-recovery snapshot and truncate the
	// WAL, so recovery is a fixed point (recover twice → same state) and
	// replayed work is never replayed again.
	e.wal, err = openWAL(dir, opts.sync)
	if err != nil {
		return nil, err
	}
	if _, err := writeSnapshotFile(dir, e.mem.ExportState(), e.seq, e.lastTS.UnixNano(), nil); err != nil {
		e.wal.close()
		return nil, err
	}
	if err := e.wal.truncate(); err != nil {
		e.wal.close()
		return nil, fmt.Errorf("durable: truncating replayed WAL: %w", err)
	}
	e.sinceSnap = 0
	return e, nil
}

// memNow is the clock the wrapped store reads. During replay it is pinned to
// the current record's timestamp; live, it is the installed simulated clock
// (frozen at the last recovered instant until SetNow runs). Only called with
// e.mu held.
func (e *Engine) memNow() time.Time {
	if e.replaying {
		return e.replayTS
	}
	if e.nowFn != nil {
		return e.nowFn()
	}
	return e.lastTS
}

// SetNow installs the live simulated clock.
func (e *Engine) SetNow(now func() time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nowFn = now
}

// applyRecord replays one WAL record through the store's own methods. The
// retired kinds (recExpire, recFetch) change nothing: what they journaled is
// no longer state.
func (e *Engine) applyRecord(rec *record) {
	switch rec.Type {
	case recStage:
		e.mem.Stage(rec.Strict, rec.Recurring, rec.Path, rec.VC)
	case recMaterialize:
		e.mem.Materialize(rec.Strict, rec.Path, rec.VC, rec.Table, rec.Mult)
	case recSeal:
		e.mem.SealAt(rec.Strict, time.Unix(0, rec.SealAt))
	case recAbandon:
		e.mem.Abandon(rec.Strict)
	case recPurge:
		e.mem.Purge(rec.Strict)
	case recPurgeVC:
		e.mem.PurgeVC(rec.VC)
	case recGC:
		e.mem.GC()
	case recSetTTL:
		e.mem.SetTTL(time.Duration(rec.TTL))
	}
}

// dead reports whether the engine can no longer accept work. Held-lock only.
func (e *Engine) dead() bool { return e.crashed || e.closed || e.err != nil }

// crash freezes the engine exactly as a process kill would: the WAL keeps
// whatever reached it, nothing else is written (no snapshot, no truncation),
// and every later call no-ops.
func (e *Engine) crash(p fault.Point) {
	e.crashed = true
	e.crashPoint = p
	e.wal.close()
}

// logAndApply is the write path: assign a sequence number, append the record
// to the WAL, then apply it to memory — with the injected crash points in
// between. The record is stamped with the current simulated time so replay
// can reproduce every time-derived field.
func (e *Engine) logAndApply(rec *record, apply func()) {
	e.seq++
	rec.Seq = e.seq
	now := e.memNow()
	rec.TS = now.UnixNano()
	e.lastTS = now
	key := rec.Type.String() + "#" + strconv.FormatUint(e.seq, 10)

	if e.opts.faults.Should(fault.DurableCrashTorn, key) {
		e.wal.appendTorn(rec)
		e.crash(fault.DurableCrashTorn)
		return
	}
	if err := e.wal.append(rec); err != nil {
		e.err = err
		return
	}
	e.mAppends.Inc()
	if e.opts.faults.Should(fault.DurableCrashAppend, key) {
		e.crash(fault.DurableCrashAppend)
		return
	}
	apply()
	e.sinceSnap++
	if e.sinceSnap >= e.opts.snapshotEvery {
		e.snapshotLocked(key)
	}
}

// snapshotLocked publishes a snapshot and truncates the WAL (with the
// injected mid-snapshot crash point).
func (e *Engine) snapshotLocked(key string) {
	crashed, err := writeSnapshotFile(e.dir, e.mem.ExportState(), e.seq, e.lastTS.UnixNano(), func() bool {
		return e.opts.faults.Should(fault.DurableCrashSnapshot, key)
	})
	if crashed {
		e.crash(fault.DurableCrashSnapshot)
		return
	}
	if err != nil {
		e.err = err
		return
	}
	if err := e.wal.truncate(); err != nil {
		e.err = fmt.Errorf("durable: truncating WAL after snapshot: %w", err)
		return
	}
	e.sinceSnap = 0
	e.mSnapshots.Inc()
}

// --- storage.Engine: mutations ---

// SetTTL logs and applies a TTL change.
func (e *Engine) SetTTL(ttl time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead() {
		return
	}
	e.logAndApply(&record{Type: recSetTTL, TTL: int64(ttl)}, func() { e.mem.SetTTL(ttl) })
}

// Stage logs and applies the staging of a view about to be materialized.
func (e *Engine) Stage(strict, recurring signature.Sig, path, vc string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead() {
		return
	}
	e.logAndApply(&record{Type: recStage, Strict: strict, Recurring: recurring, Path: path, VC: vc},
		func() { e.mem.Stage(strict, recurring, path, vc) })
}

// Materialize logs the view's bytes (the table rides in the WAL record) and
// applies. It surfaces the first WAL I/O failure, if any.
func (e *Engine) Materialize(strict signature.Sig, path, vc string, t *data.Table, mult float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed || e.closed {
		return nil
	}
	if e.err != nil {
		return e.err
	}
	e.logAndApply(&record{Type: recMaterialize, Strict: strict, Path: path, VC: vc, Mult: mult, Table: t},
		func() { e.mem.Materialize(strict, path, vc, t, mult) })
	return e.err
}

// Seal marks a view readable immediately.
func (e *Engine) Seal(strict signature.Sig) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sealAtLocked(strict, e.memNow())
}

// SealAt marks a view readable from t onward.
func (e *Engine) SealAt(strict signature.Sig, t time.Time) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sealAtLocked(strict, t)
}

func (e *Engine) sealAtLocked(strict signature.Sig, t time.Time) bool {
	if e.dead() {
		return false
	}
	var ok bool
	e.logAndApply(&record{Type: recSeal, Strict: strict, SealAt: t.UnixNano()},
		func() { ok = e.mem.SealAt(strict, t) })
	return ok
}

// Abandon discards a staged or unsealed view.
func (e *Engine) Abandon(strict signature.Sig) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead() {
		return false
	}
	var ok bool
	e.logAndApply(&record{Type: recAbandon, Strict: strict}, func() { ok = e.mem.Abandon(strict) })
	return ok
}

// Purge removes a specific view.
func (e *Engine) Purge(strict signature.Sig) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead() {
		return false
	}
	var ok bool
	e.logAndApply(&record{Type: recPurge, Strict: strict}, func() { ok = e.mem.Purge(strict) })
	return ok
}

// PurgeVC removes every view owned by a virtual cluster.
func (e *Engine) PurgeVC(vc string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead() {
		return 0
	}
	var n int
	e.logAndApply(&record{Type: recPurgeVC, VC: vc}, func() { n = e.mem.PurgeVC(vc) })
	return n
}

// GC removes expired views.
func (e *Engine) GC() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead() {
		return 0
	}
	var n int
	e.logAndApply(&record{Type: recGC}, func() { n = e.mem.GC() })
	return n
}

// --- storage.Engine: reads (nothing below appends to the log) ---

// Fetch reads a live view.
func (e *Engine) Fetch(strict signature.Sig) (*data.Table, float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead() {
		return nil, 0, false
	}
	return e.mem.Fetch(strict)
}

// Status returns a signature's metadata and lifecycle state.
func (e *Engine) Status(strict signature.Sig) (storage.View, storage.State) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead() {
		return storage.View{}, storage.StateAbsent
	}
	return e.mem.Status(strict)
}

// Views lists live view metadata sorted by path.
func (e *Engine) Views() []*storage.View {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead() {
		return nil
	}
	return e.mem.Views()
}

// Count returns the number of live views.
func (e *Engine) Count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead() {
		return 0
	}
	return e.mem.Count()
}

// UsedBytes returns the logical bytes stored for a VC.
func (e *Engine) UsedBytes(vc string) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead() {
		return 0
	}
	return e.mem.UsedBytes(vc)
}

// PendingViews returns the number of staged-but-unmaterialized signatures.
func (e *Engine) PendingViews() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead() {
		return 0
	}
	return e.mem.PendingViews()
}

// AuditBytes cross-checks the per-VC byte ledger against resident views.
func (e *Engine) AuditBytes() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed || e.closed {
		return nil
	}
	return e.mem.AuditBytes()
}

// Snapshot returns store counters.
func (e *Engine) Snapshot() storage.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead() {
		return storage.Stats{}
	}
	return e.mem.Snapshot()
}

// PathFor derives a fresh-per-incarnation view path.
func (e *Engine) PathFor(vc string, strict signature.Sig) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mem.PathFor(vc, strict)
}

// SetMetrics registers the wrapped store's lifecycle metrics plus the
// durable families: WAL appends, snapshots written, and the recovery
// counters (records replayed, snapshots loaded, torn tails truncated,
// in-flight views abandoned).
func (e *Engine) SetMetrics(r *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mem.SetMetrics(r)
	e.mAppends = r.Counter("cloudviews_durable_wal_appends_total")
	e.mSnapshots = r.Counter("cloudviews_durable_snapshots_written_total")
	r.Counter("cloudviews_durable_records_replayed_total").Add(float64(e.rec.RecordsReplayed))
	r.Counter("cloudviews_durable_snapshots_loaded_total").Add(float64(e.rec.SnapshotsLoaded))
	r.Counter("cloudviews_durable_torn_tails_truncated_total").Add(float64(e.rec.TornTailsTruncated))
	r.Counter("cloudviews_durable_inflight_abandoned_total").Add(float64(e.rec.InFlightAbandoned))
}

// --- lifecycle & introspection ---

// Close gracefully shuts the engine down: a final snapshot is published and
// the WAL truncated, so reopening replays nothing. Close after a crash is a
// no-op (the "process" already died; disk state stays exactly as the crash
// left it).
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	if e.crashed {
		return nil
	}
	if e.err != nil {
		e.wal.close()
		return e.err
	}
	if _, err := writeSnapshotFile(e.dir, e.mem.ExportState(), e.seq, e.lastTS.UnixNano(), nil); err != nil {
		e.wal.close()
		return err
	}
	if err := e.wal.truncate(); err != nil {
		e.wal.close()
		return err
	}
	return e.wal.close()
}

// Crashed reports whether an injected crash point killed the engine, and
// which one.
func (e *Engine) Crashed() (fault.Point, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashPoint, e.crashed
}

// CrashWasDurable reports whether the record being written when the crash
// fired reached the WAL intact: true for the post-append and mid-snapshot
// points, false for the torn-append point.
func (e *Engine) CrashWasDurable() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashed && e.crashPoint != fault.DurableCrashTorn
}

// Recovery returns what the last Open had to do.
func (e *Engine) Recovery() RecoveryStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rec
}

// ExportState exposes the wrapped store's full state (tests and tooling).
func (e *Engine) ExportState() *storage.StoreState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mem.ExportState()
}

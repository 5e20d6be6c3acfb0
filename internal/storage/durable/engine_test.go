package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cloudviews/internal/fixtures"
	"cloudviews/internal/obs"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

// testClock returns a settable simulated clock.
type testClock struct{ t time.Time }

func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func openTest(t *testing.T, dir string, opts Options) (*Engine, *testClock) {
	t.Helper()
	eng, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	clk := &testClock{t: fixtures.Epoch}
	eng.SetNow(clk.now)
	return eng, clk
}

// seedView drives one view through stage → materialize → seal.
func seedView(t *testing.T, e storage.Engine, sigIdx int, vc string) signature.Sig {
	t.Helper()
	strict, recurring := harnessSig(sigIdx)
	e.Stage(strict, recurring, e.PathFor(vc, strict), vc)
	if err := e.Materialize(strict, e.PathFor(vc, strict), vc, harnessTable(sigIdx, 3), 2.0); err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if !e.Seal(strict) {
		t.Fatalf("seal %s failed", strict)
	}
	return strict
}

func TestRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	eng, clk := openTest(t, dir, Options{})
	sig := seedView(t, eng, 1, "vc-a")
	clk.advance(time.Hour)
	if _, _, ok := eng.Fetch(sig); !ok {
		t.Fatal("fetch before restart failed")
	}
	want := canonical(eng.ExportState())
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	rec, _ := openTest(t, dir, Options{})
	defer rec.Close()
	if got := canonical(rec.ExportState()); !bytes.Equal(got, want) {
		t.Fatal("state did not round-trip through a graceful restart")
	}
	tab, mult, ok := rec.Fetch(sig)
	if !ok || mult != 2.0 {
		t.Fatalf("recovered view fetch: ok=%v mult=%v", ok, mult)
	}
	if tab.NumRows() != 3 {
		t.Fatalf("recovered view has %d rows, want 3", tab.NumRows())
	}
	if v, ok := rec.Lookup(sig); !ok || v.Reads != 2 {
		t.Fatalf("recovered Reads count: %+v", v)
	}
}

// TestRecoverReplaysJournaledEvictions kills the engine (no graceful close,
// no snapshot) after a lazy TTL eviction fired inside an unlogged read path.
// The eviction exists only as a journaled expire record; recovery must replay
// it, or the dead view comes back from the grave with its byte accounting.
func TestRecoverReplaysJournaledEvictions(t *testing.T) {
	dir := t.TempDir()
	eng, clk := openTest(t, dir, Options{SnapshotEvery: 1 << 30})
	eng.SetTTL(6 * time.Hour)
	sig := seedView(t, eng, 2, "vc-b")
	clk.advance(7 * time.Hour)
	if eng.Available(sig) {
		t.Fatal("expired view reported available")
	}
	if st := eng.Snapshot(); st.Expired != 1 {
		t.Fatalf("lazy eviction did not fire: %+v", st)
	}
	want := canonical(eng.ExportState())
	// No Close: simulate a hard kill. Everything below must come from the WAL.

	rec, _ := openTest(t, dir, Options{})
	defer rec.Close()
	if st := rec.Snapshot(); st.Expired != 1 {
		t.Fatalf("replay lost the journaled eviction: %+v", st)
	}
	if _, ok := rec.Lookup(sig); ok {
		t.Fatal("evicted view resurrected by recovery")
	}
	if got := canonical(rec.ExportState()); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from pre-kill state")
	}
	if rec.Recovery().RecordsReplayed == 0 {
		t.Fatal("expected WAL replay, got none")
	}
}

// TestRecoverAbandonsInFlight: staged and unsealed views must recover as
// abandoned — the producing job died with the process — with byte accounting
// settled.
func TestRecoverAbandonsInFlight(t *testing.T) {
	dir := t.TempDir()
	eng, _ := openTest(t, dir, Options{})
	staged, stagedRec := harnessSig(3)
	eng.Stage(staged, stagedRec, eng.PathFor("vc-a", staged), "vc-a")
	unsealed, unsealedRec := harnessSig(4)
	eng.Stage(unsealed, unsealedRec, eng.PathFor("vc-a", unsealed), "vc-a")
	if err := eng.Materialize(unsealed, eng.PathFor("vc-a", unsealed), "vc-a", harnessTable(4, 2), 1.0); err != nil {
		t.Fatalf("materialize: %v", err)
	}
	sealed := seedView(t, eng, 5, "vc-a")
	// Hard kill (no Close).

	rec, _ := openTest(t, dir, Options{})
	defer rec.Close()
	if got := rec.Recovery().InFlightAbandoned; got != 2 {
		t.Fatalf("InFlightAbandoned = %d, want 2", got)
	}
	if rec.PendingViews() != 0 {
		t.Fatalf("recovery left %d pending views", rec.PendingViews())
	}
	if st := rec.State(staged); st != "absent" {
		t.Fatalf("staged view recovered as %q, want absent", st)
	}
	if st := rec.State(unsealed); st != "absent" {
		t.Fatalf("unsealed view recovered as %q, want absent", st)
	}
	if !rec.Available(sealed) {
		t.Fatal("sealed view lost by recovery")
	}
	if err := rec.AuditBytes(); err != nil {
		t.Fatalf("byte ledger inconsistent after abandonment: %v", err)
	}
	if st := rec.Snapshot(); st.Abandoned != 2 {
		t.Fatalf("abandoned counter = %d, want 2", st.Abandoned)
	}
}

// TestSnapshotCadence: the WAL must reset at every snapshot and recovery
// must come purely from the snapshot when the log is empty.
func TestSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
	eng, clk := openTest(t, dir, Options{SnapshotEvery: 4})
	reg := obs.NewRegistry()
	eng.SetMetrics(reg)
	for i := 0; i < 6; i++ {
		seedView(t, eng, i, "vc-a") // 3 records each
		clk.advance(time.Minute)
	}
	if got := reg.Counter("cloudviews_durable_snapshots_written_total").Value(); got < 3 {
		t.Fatalf("snapshots written = %v, want >= 3", got)
	}
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatalf("stat wal: %v", err)
	}
	// 18 records total, snapshot every 4: at most 3 frames linger.
	if fi.Size() > 4*1024 {
		t.Fatalf("WAL not being truncated by snapshots: %d bytes", fi.Size())
	}
	want := canonical(eng.ExportState())
	// Hard kill; replay covers only the post-snapshot tail.
	rec, _ := openTest(t, dir, Options{})
	defer rec.Close()
	st := rec.Recovery()
	if st.SnapshotsLoaded != 1 {
		t.Fatalf("SnapshotsLoaded = %d, want 1", st.SnapshotsLoaded)
	}
	if st.RecordsReplayed >= 18 {
		t.Fatalf("RecordsReplayed = %d; snapshots are not bounding replay", st.RecordsReplayed)
	}
	if got := canonical(rec.ExportState()); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs after snapshot-bounded replay")
	}
}

// TestRecoveryMetricsExported: the obs registry must carry the recovery
// counters after SetMetrics.
func TestRecoveryMetricsExported(t *testing.T) {
	dir := t.TempDir()
	eng, _ := openTest(t, dir, Options{SnapshotEvery: 1 << 30})
	seedView(t, eng, 1, "vc-a")
	// Hard kill, then recover and export.
	rec, _ := openTest(t, dir, Options{})
	defer rec.Close()
	reg := obs.NewRegistry()
	rec.SetMetrics(reg)
	if got := reg.Counter("cloudviews_durable_records_replayed_total").Value(); got != 3 {
		t.Fatalf("records_replayed metric = %v, want 3", got)
	}
	if got := reg.Counter("cloudviews_durable_snapshots_loaded_total").Value(); got != 1 {
		t.Fatalf("snapshots_loaded metric = %v, want 1 (the empty initial snapshot)", got)
	}
	if got := reg.Counter("cloudviews_durable_torn_tails_truncated_total").Value(); got != 0 {
		t.Fatalf("torn_tails metric = %v, want 0", got)
	}
}

// TestRestagedAfterPurgeGetsFreshPath: a signature re-staged after a purge
// must land on a new artifact path (generation suffix), never the purged
// incarnation's path.
func TestRestagedAfterPurgeGetsFreshPath(t *testing.T) {
	dir := t.TempDir()
	eng, _ := openTest(t, dir, Options{})
	sig := seedView(t, eng, 6, "vc-a")
	first := eng.PathFor("vc-a", sig)
	if !eng.Purge(sig) {
		t.Fatal("purge failed")
	}
	second := eng.PathFor("vc-a", sig)
	if second == first {
		t.Fatalf("re-staged path %q identical to purged incarnation's", second)
	}
	// The generation must survive a restart: a post-recovery producer must
	// not reuse the purged path either.
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rec, _ := openTest(t, dir, Options{})
	defer rec.Close()
	if got := rec.PathFor("vc-a", sig); got != second {
		t.Fatalf("generation lost across restart: %q vs %q", got, second)
	}
}

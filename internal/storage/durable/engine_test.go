package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

func openTest(t *testing.T, dir string, opts options) (*Engine, *testClock) {
	t.Helper()
	eng, err := open(dir, opts)
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
	eng, clk := openTest(t, dir, options{})
	sig := seedView(t, eng, 1, "vc-a")
	clk.advance(time.Hour)
	if _, _, ok := eng.Fetch(sig); !ok {
		t.Fatal("fetch before restart failed")
	}
	want := canonical(eng.ExportState())
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	rec, _ := openTest(t, dir, options{})
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
}

// readAll asks every read and accounting accessor about every harness
// signature and VC.
func readAll(e storage.Engine) {
	for i := 0; i < harnessSigs; i++ {
		strict, _ := harnessSig(i)
		e.Status(strict)
		e.Fetch(strict)
	}
	e.Count()
	e.Views()
	e.PendingViews()
	e.Snapshot()
	e.AuditBytes()
	for _, vc := range harnessVCs {
		e.UsedBytes(vc)
		e.PathFor(vc, "strict-sig-00")
	}
}

// walSize is the log's length on disk.
func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatalf("stat wal: %v", err)
	}
	return fi.Size()
}

// TestReadsChangeNothing holds the rule on both engines: reads repeated
// across a TTL boundary see the views expire, and leave the state, the
// counters and (on the durable engine) the log exactly as they were. The
// eviction happens when the store is next written.
func TestReadsChangeNothing(t *testing.T) {
	type engine interface {
		storage.Engine
		ExportState() *storage.StoreState
	}
	clk := &testClock{t: fixtures.Epoch}
	dir := t.TempDir()
	disk, err := open(dir, options{snapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	disk.SetNow(clk.now)
	defer disk.Close()
	for name, e := range map[string]engine{"memory": storage.NewStore(clk.now), "durable": disk} {
		clk.t = fixtures.Epoch
		e.SetTTL(6 * time.Hour)
		var sigs []signature.Sig
		for i := 0; i < 3; i++ {
			sigs = append(sigs, seedView(t, e, i, harnessVCs[i]))
		}
		staged, stagedRec := harnessSig(3)
		e.Stage(staged, stagedRec, e.PathFor("vc-a", staged), "vc-a")
		clk.advance(5 * time.Hour)

		state, counters, logged := canonical(e.ExportState()), e.Snapshot(), walSize(t, dir)
		if counters.Live != 3 {
			t.Fatalf("%s: %d live views before the boundary, want 3", name, counters.Live)
		}
		for i := 0; i < 8; i++ { // 5h → 9h, over the 6h TTL
			readAll(e)
			clk.advance(30 * time.Minute)
		}
		for _, sig := range sigs {
			if _, st := e.Status(sig); st != storage.StateExpired {
				t.Fatalf("%s: %s is %v after its TTL, want expired", name, sig, st)
			}
		}
		if e.Count() != 0 || len(e.Views()) != 0 {
			t.Errorf("%s: expired views still listed", name)
		}
		after := e.Snapshot()
		if after.Expired != 0 || after.Live != 0 {
			t.Errorf("%s: counters after reads %+v, want no eviction and nothing live", name, after)
		}
		if !bytes.Equal(canonical(e.ExportState()), state) {
			t.Errorf("%s: reads changed the store's state", name)
		}
		if got := walSize(t, dir); got != logged {
			t.Errorf("%s: reads grew the log from %d to %d bytes", name, logged, got)
		}

		// Writes evict: re-staging one signature takes its expired
		// resident out, GC takes the rest.
		e.Stage(sigs[0], "r", e.PathFor("vc-a", sigs[0]), "vc-a")
		if got := e.Snapshot().Expired; got != 1 {
			t.Errorf("%s: Expired = %d after a re-stage, want 1", name, got)
		}
		if n := e.GC(); n != 2 {
			t.Errorf("%s: GC evicted %d, want 2", name, n)
		}
		if err := e.AuditBytes(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// copyDataDir copies the engine's files as they stand — what a hard kill at
// this instant would leave behind, since every append reaches the OS before
// it is applied.
func copyDataDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	for _, name := range []string{walName, snapshotName} {
		b, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatalf("copying %s: %v", name, err)
		}
		if err := os.WriteFile(filepath.Join(to, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// TestHardKillRecoveryMatchesMemory runs a seeded lifecycle stream — long
// clock jumps over the TTL, reads in between — on the in-memory store and the
// durable engine in lockstep, and every 25 operations hard-kills a copy of
// the durable engine and recovers it: all three must hold the same canonical
// state. Evictions are not journaled, so replay has to reproduce each one
// from the logged write that performed it.
func TestHardKillRecoveryMatchesMemory(t *testing.T) {
	for seed := uint64(5); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			eng, err := open(dir, options{snapshotEvery: 40})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer eng.Close()
			clock := fixtures.Epoch
			eng.SetNow(func() time.Time { return clock })
			oclock := fixtures.Epoch
			mem := storage.NewStore(func() time.Time { return oclock })

			sawExpired, replayed := false, 0
			for i, op := range genOps(seed, 300) {
				applyHarnessOp(eng, op, &clock)
				applyHarnessOp(mem, op, &oclock)
				strict, _ := harnessSig(op.sig)
				ev, est := eng.Status(strict)
				mv, mst := mem.Status(strict)
				if est != mst || ev.Path != mv.Path || !ev.ExpiresAt.Equal(mv.ExpiresAt) {
					t.Fatalf("op %d (%s): durable reads %v %+v, memory %v %+v", i, op.kind, est, ev, mst, mv)
				}
				sawExpired = sawExpired || est == storage.StateExpired
				if got, want := canonical(eng.ExportState()), canonical(mem.ExportState()); !bytes.Equal(got, want) {
					t.Fatalf("op %d (%s): durable and in-memory stores diverged", i, op.kind)
				}
				if i%25 != 24 {
					continue
				}
				rec, err := Open(copyDataDir(t, dir))
				if err != nil {
					t.Fatalf("op %d: recovering the killed copy: %v", i, err)
				}
				// Recovery abandons in-flight views; do the same to a copy
				// of the oracle.
				oracle := storage.NewStore(func() time.Time { return oclock })
				oracle.RestoreState(mem.ExportState())
				for _, sig := range oracle.InFlightSigs() {
					oracle.Abandon(sig)
				}
				if got, want := canonical(rec.ExportState()), canonical(oracle.ExportState()); !bytes.Equal(got, want) {
					t.Fatalf("op %d: hard-killed and recovered state differs from the in-memory store", i)
				}
				replayed += rec.Recovery().RecordsReplayed
				rec.Close()
			}
			if !sawExpired || mem.Snapshot().Expired == 0 {
				t.Fatalf("the stream never read an expired resident or never evicted one (%+v)", mem.Snapshot())
			}
			if replayed == 0 {
				t.Fatal("no recovery replayed the log")
			}
		})
	}
}

// TestOlderDataDirectory opens a directory the previous format's engine wrote
// and was killed over (testdata/datadir-v1: a CVSNAP1 snapshot, and a log
// holding two views, two fetches of one and the lazy expiry of the other).
// The snapshot is refused by name, never decoded with a shifted layout; the
// log alone replays with the retired records read through, not taken for a
// torn tail.
func TestOlderDataDirectory(t *testing.T) {
	dir := copyDataDir(t, filepath.Join("testdata", "datadir-v1"))
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), `"CVSNAP1\n"`) {
		t.Fatalf("opening a CVSNAP1 directory: %v, want a refusal naming the format", err)
	}

	if err := os.Remove(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("replaying the older log: %v", err)
	}
	defer rec.Close()
	if st := rec.Recovery(); st.RecordsReplayed != 10 || st.TornTailsTruncated != 0 {
		t.Fatalf("recovery %+v, want 10 records and no torn tail", st)
	}
	// The clock stands at the expire record's instant, past both views'
	// TTL. The old engine had evicted only the one it was asked about; here
	// both are in one state, resident until a write.
	for _, i := range []int{1, 2} {
		sig, _ := harnessSig(i)
		if _, st := rec.Status(sig); st != storage.StateExpired {
			t.Errorf("%s recovered as %v, want expired", sig, st)
		}
	}
	if err := rec.AuditBytes(); err != nil {
		t.Error(err)
	}
	if n := rec.GC(); n != 2 {
		t.Errorf("GC evicted %d, want 2", n)
	}
}

// TestRecoverAbandonsInFlight: staged and unsealed views must recover as
// abandoned — the producing job died with the process — with byte accounting
// settled.
func TestRecoverAbandonsInFlight(t *testing.T) {
	dir := t.TempDir()
	eng, _ := openTest(t, dir, options{})
	staged, stagedRec := harnessSig(3)
	eng.Stage(staged, stagedRec, eng.PathFor("vc-a", staged), "vc-a")
	unsealed, unsealedRec := harnessSig(4)
	eng.Stage(unsealed, unsealedRec, eng.PathFor("vc-a", unsealed), "vc-a")
	if err := eng.Materialize(unsealed, eng.PathFor("vc-a", unsealed), "vc-a", harnessTable(4, 2), 1.0); err != nil {
		t.Fatalf("materialize: %v", err)
	}
	sealed := seedView(t, eng, 5, "vc-a")
	// Hard kill (no Close).

	rec, _ := openTest(t, dir, options{})
	defer rec.Close()
	if got := rec.Recovery().InFlightAbandoned; got != 2 {
		t.Fatalf("InFlightAbandoned = %d, want 2", got)
	}
	if rec.PendingViews() != 0 {
		t.Fatalf("recovery left %d pending views", rec.PendingViews())
	}
	if _, st := rec.Status(staged); st != storage.StateAbsent {
		t.Fatalf("staged view recovered as %v, want absent", st)
	}
	if _, st := rec.Status(unsealed); st != storage.StateAbsent {
		t.Fatalf("unsealed view recovered as %v, want absent", st)
	}
	if _, st := rec.Status(sealed); !st.Servable() {
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
	eng, clk := openTest(t, dir, options{snapshotEvery: 4})
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
	rec, _ := openTest(t, dir, options{})
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
	eng, _ := openTest(t, dir, options{snapshotEvery: 1 << 30})
	seedView(t, eng, 1, "vc-a")
	// Hard kill, then recover and export.
	rec, _ := openTest(t, dir, options{})
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
	eng, _ := openTest(t, dir, options{})
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
	rec, _ := openTest(t, dir, options{})
	defer rec.Close()
	if got := rec.PathFor("vc-a", sig); got != second {
		t.Fatalf("generation lost across restart: %q vs %q", got, second)
	}
}

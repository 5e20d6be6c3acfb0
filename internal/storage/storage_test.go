package storage_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/storage"
)

func table() *data.Table {
	t := data.NewTable(data.Schema{{Name: "a", Kind: data.KindInt}})
	t.Append(data.Row{data.Int(1)})
	t.Append(data.Row{data.Int(2)})
	return t
}

// servable and inFlight ask the store's one per-signature read for the two
// predicates callers act on.
func servable(s *storage.Store, sig signature.Sig) bool {
	_, st := s.Status(sig)
	return st.Servable()
}

func inFlight(s *storage.Store, sig signature.Sig) bool {
	_, st := s.Status(sig)
	return st.Building()
}

func TestStageMaterializeSealFetch(t *testing.T) {
	now := time.Unix(0, 0)
	s := storage.NewStore(func() time.Time { return now })
	s.Stage("sig1", "rec1", "p/sig1", "vc1")

	if servable(s, "sig1") {
		t.Error("staged view must not be available")
	}
	if !inFlight(s, "sig1") {
		t.Error("staged view must be in flight")
	}
	if err := s.Materialize("sig1", "p/sig1", "vc1", table(), 2); err != nil {
		t.Fatal(err)
	}
	if servable(s, "sig1") {
		t.Error("unsealed view must not be available")
	}
	if !inFlight(s, "sig1") {
		t.Error("materialized-but-unsealed view is still in flight")
	}
	if !s.Seal("sig1") {
		t.Fatal("seal failed")
	}
	if !servable(s, "sig1") {
		t.Error("sealed view must be available")
	}
	tb, mult, ok := s.Fetch("sig1")
	if !ok || mult != 2 || tb.NumRows() != 2 {
		t.Fatalf("fetch: ok=%v mult=%g rows=%d", ok, mult, tb.NumRows())
	}
	v, _ := s.Status("sig1")
	if v.VC != "vc1" || v.Recurring != "rec1" {
		t.Errorf("metadata: %+v", v)
	}
	// Logical bytes honor the multiplier.
	if v.Bytes != table().ByteSize()*2 {
		t.Errorf("bytes = %d, want %d", v.Bytes, table().ByteSize()*2)
	}
	if s.UsedBytes("vc1") != v.Bytes {
		t.Errorf("vc accounting = %d", s.UsedBytes("vc1"))
	}
}

func TestExpiry(t *testing.T) {
	now := time.Unix(0, 0)
	s := storage.NewStore(func() time.Time { return now })
	s.Stage("sig1", "rec1", "p", "vc")
	_ = s.Materialize("sig1", "p", "vc", table(), 1)
	s.Seal("sig1")

	now = now.Add(storage.DefaultTTL - time.Hour)
	if !servable(s, "sig1") {
		t.Error("view expired too early")
	}
	now = now.Add(2 * time.Hour)
	if servable(s, "sig1") {
		t.Error("view must expire after TTL")
	}
	if _, _, ok := s.Fetch("sig1"); ok {
		t.Error("expired view must not fetch")
	}
	// The reads above saw the view as gone and left it where it was.
	if st := s.Snapshot(); st.Expired != 0 || st.Live != 0 {
		t.Errorf("snapshot after reads: %+v, want nothing evicted and nothing live", st)
	}
	if s.UsedBytes("vc") != 0 {
		t.Error("an expired view must not count against its VC")
	}
	if n := s.GC(); n != 1 {
		t.Errorf("GC evicted %d, want 1", n)
	}
	if err := s.AuditBytes(); err != nil {
		t.Error(err)
	}
	st := s.Snapshot()
	if st.Expired != 1 || st.Live != 0 || st.Created != 1 {
		t.Errorf("snapshot: %+v", st)
	}
}

func TestMaterializeRaceKeepsFirst(t *testing.T) {
	now := time.Unix(0, 0)
	s := storage.NewStore(func() time.Time { return now })
	first := table()
	_ = s.Materialize("sig1", "p", "vc", first, 1)
	second := data.NewTable(first.Schema)
	_ = s.Materialize("sig1", "p", "vc", second, 1)
	s.Seal("sig1")
	tb, _, _ := s.Fetch("sig1")
	if tb.NumRows() != 2 {
		t.Error("second materialization must not clobber the first")
	}
}

func TestPurge(t *testing.T) {
	now := time.Unix(0, 0)
	s := storage.NewStore(func() time.Time { return now })
	for _, sig := range []signature.Sig{"a", "b", "c"} {
		s.Stage(sig, "r"+sig, "p/"+string(sig), "vc1")
		_ = s.Materialize(sig, "p/"+string(sig), "vc1", table(), 1)
		s.Seal(sig)
	}
	s.Stage("d", "rd", "p/d", "vc2")
	_ = s.Materialize("d", "p/d", "vc2", table(), 1)
	s.Seal("d")

	if !s.Purge("a") {
		t.Error("purge failed")
	}
	if s.Purge("a") {
		t.Error("double purge must fail")
	}
	if n := s.PurgeVC("vc1"); n != 2 {
		t.Errorf("PurgeVC = %d, want 2", n)
	}
	if s.Count() != 1 {
		t.Errorf("live = %d, want 1", s.Count())
	}
	if s.UsedBytes("vc1") != 0 {
		t.Error("vc1 accounting must drop to zero")
	}
}

func TestSetTTL(t *testing.T) {
	now := time.Unix(0, 0)
	s := storage.NewStore(func() time.Time { return now })
	s.SetTTL(time.Minute)
	_ = s.Materialize("x", "p", "vc", table(), 1)
	s.Seal("x")
	now = now.Add(2 * time.Minute)
	if servable(s, "x") {
		t.Error("custom TTL not honored")
	}
}

func TestViewsListing(t *testing.T) {
	s := storage.NewStore(func() time.Time { return time.Unix(0, 0) })
	_ = s.Materialize("b", "p/2", "vc", table(), 1)
	_ = s.Materialize("a", "p/1", "vc", table(), 1)
	vs := s.Views()
	if len(vs) != 2 || vs[0].Path != "p/1" {
		t.Errorf("views = %+v", vs)
	}
}

func TestPathFor(t *testing.T) {
	p := storage.PathFor("vc1", "abcdefghijklmnopqrstuv")
	if p != "cloudviews/vc1/abcdefghijkl.ss" {
		t.Errorf("path = %q", p)
	}
}

// TestExpiredViewRestagedWithoutGC is the regression test for the lifecycle
// bug where an expired-but-not-GC'd view permanently blocked its signature:
// Stage/Materialize early-returned on the stale entry, so the view could
// neither be reused nor rebuilt until someone called GC().
func TestExpiredViewRestagedWithoutGC(t *testing.T) {
	now := time.Unix(0, 0)
	s := storage.NewStore(func() time.Time { return now })
	s.Stage("sig1", "rec1", "p/sig1", "vc1")
	_ = s.Materialize("sig1", "p/sig1", "vc1", table(), 1)
	s.Seal("sig1")
	if !servable(s, "sig1") {
		t.Fatal("fresh view must be available")
	}

	// TTL passes; deliberately no GC() call.
	now = now.Add(storage.DefaultTTL + time.Hour)

	// The whole build cycle must work again against the stale entry.
	s.Stage("sig1", "rec1", "p/sig1", "vc1")
	if !inFlight(s, "sig1") {
		t.Fatal("re-stage over an expired entry must leave the signature in flight")
	}
	if err := s.Materialize("sig1", "p/sig1", "vc1", table(), 1); err != nil {
		t.Fatal(err)
	}
	if !s.Seal("sig1") {
		t.Fatal("re-seal failed")
	}
	if !servable(s, "sig1") {
		t.Error("rebuilt view must be available without any GC call")
	}
	if _, _, ok := s.Fetch("sig1"); !ok {
		t.Error("rebuilt view must fetch")
	}
	st := s.Snapshot()
	if st.Created != 2 || st.Expired != 1 || st.Live != 1 {
		t.Errorf("snapshot after transparent rebuild: %+v", st)
	}
	if want := table().ByteSize(); s.UsedBytes("vc1") != want {
		t.Errorf("vc1 bytes = %d, want %d (old artifact must not double-count)", s.UsedBytes("vc1"), want)
	}
}

// TestMaterializeUnstagedVCAccounting is the regression test for the
// direct-materialize path creating a View with an empty VC and corrupting
// byVC[""] accounting.
func TestMaterializeUnstagedVCAccounting(t *testing.T) {
	now := time.Unix(0, 0)
	s := storage.NewStore(func() time.Time { return now })
	if err := s.Materialize("sig1", "p/sig1", "tenant9", table(), 2); err != nil {
		t.Fatal(err)
	}
	v, st := s.Status("sig1")
	if st != storage.StateUnsealed || v.VC != "tenant9" {
		t.Fatalf("unstaged materialize lost the VC: %+v", v)
	}
	if s.UsedBytes("tenant9") != v.Bytes {
		t.Errorf("tenant9 bytes = %d, want %d", s.UsedBytes("tenant9"), v.Bytes)
	}
	if s.UsedBytes("") != 0 {
		t.Errorf(`byVC[""] = %d, must stay untouched`, s.UsedBytes(""))
	}
	if !s.Purge("sig1") {
		t.Fatal("purge failed")
	}
	if s.UsedBytes("tenant9") != 0 {
		t.Error("purge must settle the owning VC's accounting")
	}
}

// TestLiveAccessorsExpiryAware pins that Count/Snapshot().Live/Views/
// UsedBytes exclude expired-but-unevicted entries.
func TestLiveAccessorsExpiryAware(t *testing.T) {
	now := time.Unix(0, 0)
	s := storage.NewStore(func() time.Time { return now })
	_ = s.Materialize("old", "p/old", "vc1", table(), 1)
	s.Seal("old")
	now = now.Add(storage.DefaultTTL / 2)
	_ = s.Materialize("new", "p/new", "vc1", table(), 1)
	s.Seal("new")
	now = now.Add(storage.DefaultTTL/2 + time.Hour) // "old" expired, "new" alive

	if got := s.Count(); got != 1 {
		t.Errorf("Count = %d, want 1 (expired view still cached)", got)
	}
	if st := s.Snapshot(); st.Live != 1 {
		t.Errorf("Snapshot().Live = %d, want 1", st.Live)
	}
	vs := s.Views()
	if len(vs) != 1 || vs[0].Strict != "new" {
		t.Errorf("Views() = %+v, want only the live view", vs)
	}
	if want := table().ByteSize(); s.UsedBytes("vc1") != want {
		t.Errorf("UsedBytes = %d, want %d (expired bytes excluded)", s.UsedBytes("vc1"), want)
	}
}

func TestAbandon(t *testing.T) {
	now := time.Unix(0, 0)
	s := storage.NewStore(func() time.Time { return now })

	// Abandoning a staged-only view clears the pending slot.
	s.Stage("a", "ra", "p/a", "vc1")
	if !s.Abandon("a") {
		t.Fatal("abandon of a pending view failed")
	}
	if inFlight(s, "a") {
		t.Error("abandoned pending view must not stay in flight")
	}

	// Abandoning a materialized-but-unsealed view releases the bytes.
	s.Stage("b", "rb", "p/b", "vc1")
	_ = s.Materialize("b", "p/b", "vc1", table(), 1)
	if !s.Abandon("b") {
		t.Fatal("abandon of an unsealed view failed")
	}
	if inFlight(s, "b") || servable(s, "b") {
		t.Error("abandoned unsealed view must vanish")
	}
	if s.UsedBytes("vc1") != 0 {
		t.Errorf("vc1 bytes = %d after abandon, want 0", s.UsedBytes("vc1"))
	}

	// Sealed views are readable artifacts and must never be abandoned.
	s.Stage("c", "rc", "p/c", "vc1")
	_ = s.Materialize("c", "p/c", "vc1", table(), 1)
	s.Seal("c")
	if s.Abandon("c") {
		t.Error("abandon must refuse sealed views")
	}
	if st := s.Snapshot(); st.Abandoned != 2 || st.Live != 1 {
		t.Errorf("snapshot: %+v", st)
	}
}

// TestState walks one signature through all six lifecycle states and checks
// that Status, its two predicates and Fetch give one answer — and that asking
// never moves a counter.
func TestState(t *testing.T) {
	now := time.Unix(0, 0)
	s := storage.NewStore(func() time.Time { return now })
	steps := []struct {
		name     string
		do       func()
		want     storage.State
		servable bool
		building bool
		resident bool // Status returns the materialized metadata
	}{
		{"absent", func() {}, storage.StateAbsent, false, false, false},
		{"pending", func() { s.Stage("x", "rx", "p/x", "vc") }, storage.StatePending, false, true, false},
		{"unsealed", func() { _ = s.Materialize("x", "p/x", "vc", table(), 1) }, storage.StateUnsealed, false, true, true},
		{"sealing", func() { s.SealAt("x", now.Add(time.Hour)) }, storage.StateSealing, false, true, true},
		{"live", func() { now = now.Add(2 * time.Hour) }, storage.StateLive, true, false, true},
		{"expired", func() { now = now.Add(storage.DefaultTTL) }, storage.StateExpired, false, false, true},
	}
	for _, step := range steps {
		step.do()
		before := s.Snapshot()
		v, st := s.Status("x")
		if st != step.want || st.String() != step.name {
			t.Errorf("%s: state = %v", step.name, st)
		}
		if st.Servable() != step.servable || st.Building() != step.building {
			t.Errorf("%s: servable=%v building=%v, want %v %v", step.name, st.Servable(), st.Building(), step.servable, step.building)
		}
		if _, _, ok := s.Fetch("x"); ok != step.servable {
			t.Errorf("%s: Fetch ok=%v, Servable=%v", step.name, ok, step.servable)
		}
		if st != storage.StateAbsent && (v.Strict != "x" || v.Recurring != "rx" || v.Path != "p/x" || v.VC != "vc") {
			t.Errorf("%s: metadata %+v", step.name, v)
		}
		if (v.Table != nil) != step.resident {
			t.Errorf("%s: table present = %v, want %v", step.name, v.Table != nil, step.resident)
		}
		if after := s.Snapshot(); after.Expired != before.Expired || after.Created != before.Created {
			t.Errorf("%s: reading moved the counters: %+v -> %+v", step.name, before, after)
		}
	}
}

// TestSealReadsClockUnderLock: Seal reads the clock it stamps the view with,
// and SetNow replaces that clock (the core does, on an engine it was
// handed); the two must be ordered by the store's lock. Fails under
// -race when Seal reads the field before locking.
func TestSealReadsClockUnderLock(t *testing.T) {
	s := storage.NewStore(func() time.Time { return time.Unix(0, 0) })
	_ = s.Materialize("x", "p/x", "vc", table(), 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			at := time.Unix(int64(i), 0)
			s.SetNow(func() time.Time { return at })
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if !s.Seal("x") {
				t.Error("seal failed")
				return
			}
		}
	}()
	wg.Wait()
}

// TestStoreConcurrentLifecycle races every store operation — Stage,
// Materialize, Seal, Fetch, Status, GC, Purge, Abandon — over a shared
// signature space while the simulated clock advances: no reader may be served
// a view past its TTL, and the accounting invariants must hold at the end.
// Run under -race this is the store's data-race guard.
func TestStoreConcurrentLifecycle(t *testing.T) {
	var clock atomic.Int64 // unix nanos
	s := storage.NewStore(func() time.Time { return time.Unix(0, clock.Load()) })
	s.SetTTL(500 * time.Millisecond)

	vcs := []string{"vc1", "vc2", "vc3"}
	const workers, rounds, sigs = 8, 300, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sig := signature.Sig(fmt.Sprintf("sig-%d", (w*rounds+i)%sigs))
				vc := vcs[(w+i)%len(vcs)]
				switch i % 8 {
				case 0:
					s.Stage(sig, "r"+sig, "p/"+string(sig), vc)
				case 1:
					_ = s.Materialize(sig, "p/"+string(sig), vc, table(), 1)
				case 2:
					s.Seal(sig)
				case 3:
					// The store reads the clock after this does, so a view
					// servable at the store's instant had not expired here.
					before := time.Unix(0, clock.Load())
					v, st := s.Status(sig)
					if st.Servable() && (before.After(v.ExpiresAt) || !v.Sealed || v.Table == nil) {
						t.Errorf("served %s at %v: %+v", sig, before, v)
					}
					if st.Servable() && st.Building() {
						t.Errorf("%s is both servable and in flight", sig)
					}
					if tb, _, ok := s.Fetch(sig); ok && tb == nil {
						t.Errorf("fetched %s without a table", sig)
					}
				case 4:
					clock.Add(int64(50 * time.Millisecond))
				case 5:
					s.GC()
				case 6:
					s.Purge(sig)
				case 7:
					s.Abandon(sig)
				}
			}
		}(w)
	}
	wg.Wait()

	if err := s.AuditBytes(); err != nil {
		t.Error(err)
	}
	for _, vc := range append(vcs, "") {
		if got := s.UsedBytes(vc); got < 0 {
			t.Errorf("byVC[%q] = %d, negative accounting", vc, got)
		}
	}
	st := s.Snapshot()
	if st.Created < 0 || st.Expired < 0 || st.Purged < 0 || st.Abandoned < 0 || st.Live < 0 {
		t.Errorf("negative counters: %+v", st)
	}
	if st.Live > int(st.Created) {
		t.Errorf("live %d exceeds created %d", st.Live, st.Created)
	}
	// Every created view is still live or left through exactly one of the
	// exit paths; an eviction inside a write must not double-count.
	if exits := st.Expired + st.Purged; int64(st.Live)+exits > st.Created {
		t.Errorf("lifecycle leak: live=%d expired=%d purged=%d created=%d", st.Live, st.Expired, st.Purged, st.Created)
	}
}

func TestAuditBytesAndPendingViews(t *testing.T) {
	now := time.Unix(0, 0)
	s := storage.NewStore(func() time.Time { return now })
	if err := s.AuditBytes(); err != nil {
		t.Fatalf("empty store fails audit: %v", err)
	}
	s.Stage("sig1", "rec1", "p/sig1", "vc1")
	if s.PendingViews() != 1 {
		t.Fatalf("pending = %d, want 1", s.PendingViews())
	}
	if err := s.Materialize("sig1", "p/sig1", "vc1", table(), 2); err != nil {
		t.Fatal(err)
	}
	if s.PendingViews() != 0 {
		t.Fatalf("pending after materialize = %d, want 0", s.PendingViews())
	}
	s.Seal("sig1")
	s.Stage("sig2", "rec2", "p/sig2", "vc2")
	if err := s.AuditBytes(); err != nil {
		t.Fatalf("audit after materialize: %v", err)
	}
	s.Abandon("sig2")
	if s.PendingViews() != 0 {
		t.Fatalf("pending after abandon = %d, want 0", s.PendingViews())
	}
	// Sealed views are never abandoned; the ledger keeps carrying them.
	if s.Abandon("sig1") {
		t.Fatal("abandoning a sealed view must fail")
	}
	if err := s.AuditBytes(); err != nil {
		t.Fatalf("audit after abandon: %v", err)
	}
	if s.UsedBytes("vc2") != 0 {
		t.Fatalf("vc2 bytes after abandon = %d", s.UsedBytes("vc2"))
	}
}

// TestPathFreshAfterPurge: a signature re-staged after Purge (or PurgeVC)
// must get a path distinct from the purged incarnation's, so a durable
// backend can never confuse the new artifact with stale bytes on disk. The
// generation-zero path must stay the historical format — goldens depend on it.
func TestPathFreshAfterPurge(t *testing.T) {
	now := time.Unix(0, 0)
	s := storage.NewStore(func() time.Time { return now })
	first := s.PathFor("vc1", "sig1")
	if first != storage.PathFor("vc1", "sig1") {
		t.Fatalf("generation-zero path changed: %q vs %q", first, storage.PathFor("vc1", "sig1"))
	}
	s.Stage("sig1", "rec1", first, "vc1")
	if err := s.Materialize("sig1", first, "vc1", table(), 2); err != nil {
		t.Fatal(err)
	}
	s.Seal("sig1")
	if !s.Purge("sig1") {
		t.Fatal("purge failed")
	}
	second := s.PathFor("vc1", "sig1")
	if second == first {
		t.Fatalf("re-staged path %q identical to purged incarnation's", second)
	}
	// Another signature's path is untouched by sig1's purge.
	if got := s.PathFor("vc1", "sig2"); got != storage.PathFor("vc1", "sig2") {
		t.Fatalf("unrelated signature's path bumped: %q", got)
	}
	// PurgeVC bumps again: three distinct incarnations total.
	s.Stage("sig1", "rec1", second, "vc1")
	if err := s.Materialize("sig1", second, "vc1", table(), 2); err != nil {
		t.Fatal(err)
	}
	s.Seal("sig1")
	if s.PurgeVC("vc1") == 0 {
		t.Fatal("purgevc removed nothing")
	}
	third := s.PathFor("vc1", "sig1")
	if third == first || third == second {
		t.Fatalf("PurgeVC did not mint a fresh path: %q", third)
	}
}

// orderedDigest hashes a table cell by cell in storage order — schema, row
// count, each row's length, all five fields of every cell — so a reordered,
// truncated or scribbled table reads differently (Table.Fingerprint sorts).
func orderedDigest(t *data.Table) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	io.WriteString(h, t.Schema.String())
	put(uint64(len(t.Rows)))
	for _, r := range t.Rows {
		put(uint64(len(r)))
		for _, v := range r {
			put(uint64(v.Kind))
			put(uint64(v.I))
			put(math.Float64bits(v.F))
			put(uint64(len(v.S)))
			io.WriteString(h, v.S)
			var b uint64
			if v.B {
				b = 1
			}
			put(b)
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestFetchSharesSealedTable: Fetch hands out the stored table itself — the
// same pointer every time, for no allocation — and that is safe because
// nobody writes to it. Eight readers run filter → join → aggregate over the
// one fetched table, on both executor arms, while a writer stages, seals and
// purges views over the same table and over its own; every answer must be the
// single-threaded one, the stored table must read at the end as it did when
// it was sealed, and under -race any write an operator made to a row it was
// given would be reported against the other seven readers.
func TestFetchSharesSealedTable(t *testing.T) {
	cat, err := fixtures.Retail(fixtures.RetailConfig{Customers: 60, Parts: 10, Sales: 2000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	s := storage.NewStore(func() time.Time { return now })
	publish := func(sig signature.Sig, tb *data.Table) {
		s.Stage(sig, "rec", "p/"+string(sig), "vc1")
		if err := s.Materialize(sig, "p/"+string(sig), "vc1", tb, 1); err != nil {
			t.Error(err)
		}
		s.Seal(sig)
	}
	stored := map[signature.Sig]*data.Table{}
	for sig, name := range map[signature.Sig]string{"sales": "Sales", "customer": "Customer"} {
		v, err := cat.Latest(name)
		if err != nil {
			t.Fatal(err)
		}
		stored[sig] = v.Table.Clone() // the store's own artifact, not the catalog's
		publish(sig, stored[sig])
	}
	sealed := orderedDigest(stored["sales"])

	for i := 0; i < 3; i++ {
		if got, mult, ok := s.Fetch("sales"); !ok || got != stored["sales"] || mult != 1 {
			t.Fatalf("fetch %d returned %p (mult %v, ok %v), want the stored table %p", i, got, mult, ok, stored["sales"])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Fetch("sales") }); allocs != 0 {
		t.Errorf("a fetch allocates %.0f times, want 0", allocs)
	}

	// The plan reads both views: every Scan of the bound query becomes a
	// ViewScan of the view holding that dataset.
	q, err := sqlparser.ParseQuery(`SELECT MktSegment, COUNT(*) AS n, SUM(Price) AS total, MIN(Quantity) AS mn
		FROM (SELECT * FROM Sales WHERE Price > 20) AS s JOIN Customer ON s.CustomerId = Customer.Id
		GROUP BY MktSegment`)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := (&plan.Binder{Catalog: cat}).BindQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	var overViews func(n plan.Node) plan.Node
	overViews = func(n plan.Node) plan.Node {
		if sc, ok := n.(*plan.Scan); ok {
			return &plan.ViewScan{StrictSig: strings.ToLower(sc.Dataset), Out: sc.Out}
		}
		return plan.MapInputs(n, overViews)
	}
	root := overViews(bound)
	run := func(vectorized bool) (*data.Table, error) {
		res, err := (&exec.Executor{Catalog: cat, Views: s, Vectorized: vectorized}).Run(root)
		if err != nil {
			return nil, err
		}
		for _, op := range []string{"ViewScan", "Filter", "Join", "Aggregate"} {
			found := false
			for _, st := range res.Stats {
				found = found || (st.Node.OpName() == op && st.RowsOut > 0)
			}
			if !found {
				return nil, fmt.Errorf("%s produced no rows", op)
			}
		}
		return res.Table, nil
	}
	ref, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	want := orderedDigest(ref)

	const readers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var ran atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				got, err := run((r+i)%2 == 0)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if orderedDigest(got) != want {
					t.Errorf("reader %d, run %d: the answer over the shared table differs from the single-threaded one", r, i)
					return
				}
				// A view that comes and goes: absent, mid-publish or purged.
				if tb, _, ok := s.Fetch("churn"); ok && tb != stored["sales"] {
					t.Errorf("reader %d: churn fetched %p, want the table it was published with", r, tb)
					return
				}
				ran.Add(1)
			}
		}(r)
	}
	for i := 0; i < 100 || ran.Load() < 4*readers; i++ {
		// The churning view is the same table under a second signature (one
		// table may be stored twice), then a table of the writer's own.
		publish("churn", stored["sales"])
		s.Purge("churn")
		publish("other", table())
		s.Purge("other")
	}
	close(stop)
	wg.Wait()

	if got, _, ok := s.Fetch("sales"); !ok || got != stored["sales"] || orderedDigest(got) != sealed {
		t.Fatal("the stored view changed under concurrent readers")
	}
}

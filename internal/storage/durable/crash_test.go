package durable

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"cloudviews/internal/data"
	"cloudviews/internal/fault"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

// The crash-point harness: a seeded operation generator drives the durable
// engine with an injector that kills it at one named crash point, the datadir
// is reopened, and the recovered state must be byte-identical to an oracle
// in-memory store that executed exactly the committed prefix of the same
// operation stream (plus the crashing operation iff its record reached the
// WAL intact, per the crash point's semantics), followed by the recovery
// abandonment of in-flight views.

// harnessRNG is a splitmix64 stream: the same seed generates the same
// workload on every run and platform.
type harnessRNG struct{ s uint64 }

func (r *harnessRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (r *harnessRNG) intn(n int) int { return int(r.next() % uint64(n)) }

type harnessOp struct {
	kind string
	sig  int           // index into the signature pool
	vc   int           // index into the VC pool
	adv  time.Duration // advance: clock step
	ttl  time.Duration // setttl
	seal time.Duration // seal: offset of the sealing instant from now
	rows int           // materialize: table size
}

var harnessVCs = []string{"vc-a", "vc-b", "vc-c"}

const harnessSigs = 12

func harnessSig(i int) (strict, recurring signature.Sig) {
	return signature.Sig(fmt.Sprintf("strict-sig-%02d", i)),
		signature.Sig(fmt.Sprintf("recurring-sig-%02d", i%5))
}

// genOps produces a deterministic mixed workload: lifecycle mutations, reads
// (which must leave no trace), clock advances (some long enough to expire
// views against the TTL), and occasional TTL changes.
func genOps(seed uint64, n int) []harnessOp {
	// Note: do NOT multiply the seed by the splitmix gamma here — that makes
	// consecutive seeds' streams mere one-step shifts of each other.
	r := &harnessRNG{s: seed ^ 0xa3ec4f1d27b65e91}
	ops := make([]harnessOp, 0, n)
	for i := 0; i < n; i++ {
		op := harnessOp{sig: r.intn(harnessSigs), vc: r.intn(len(harnessVCs))}
		switch k := r.intn(100); {
		case k < 20:
			op.kind = "stage"
		case k < 38:
			op.kind = "materialize"
			op.rows = 1 + r.intn(6)
		case k < 54:
			op.kind = "seal"
			op.seal = time.Duration(r.intn(120)) * time.Second
		case k < 59:
			op.kind = "abandon"
		case k < 63:
			op.kind = "purge"
		case k < 65:
			op.kind = "purgevc"
		case k < 68:
			op.kind = "gc"
		case k < 79:
			op.kind = "fetch"
		case k < 92:
			op.kind = "status"
		case k < 98:
			op.kind = "advance"
			if r.intn(3) == 0 {
				// Long jumps push views past their TTL so expired residents
				// are part of every recovered state.
				op.adv = time.Duration(1+r.intn(3)) * 24 * time.Hour
			} else {
				op.adv = time.Duration(1+r.intn(170)) * time.Minute
			}
		default:
			op.kind = "setttl"
			op.ttl = []time.Duration{6 * time.Hour, 18 * time.Hour, 36 * time.Hour}[r.intn(3)]
		}
		ops = append(ops, op)
	}
	return ops
}

// harnessTable builds the deterministic payload for one (signature, size)
// materialization.
func harnessTable(sigIdx, rows int) *data.Table {
	t := data.NewTable(data.Schema{
		{Name: "k", Kind: data.KindInt},
		{Name: "name", Kind: data.KindString},
		{Name: "w", Kind: data.KindFloat},
	})
	for i := 0; i < rows; i++ {
		t.Rows = append(t.Rows, data.Row{
			data.Int(int64(sigIdx*1000 + i)),
			data.String_(fmt.Sprintf("row-%d-%d", sigIdx, i)),
			data.Float(float64(i) * 1.5),
		})
	}
	return t
}

// applyHarnessOp executes one op against any storage.Engine. Both the live
// durable engine and the oracle in-memory store go through this same code,
// so equal committed prefixes imply equal operation streams.
func applyHarnessOp(e storage.Engine, op harnessOp, clock *time.Time) {
	strict, recurring := harnessSig(op.sig)
	vc := harnessVCs[op.vc]
	switch op.kind {
	case "advance":
		*clock = clock.Add(op.adv)
	case "stage":
		e.Stage(strict, recurring, e.PathFor(vc, strict), vc)
	case "materialize":
		e.Materialize(strict, e.PathFor(vc, strict), vc, harnessTable(op.sig, op.rows), 1.0+float64(op.sig%5))
	case "seal":
		e.SealAt(strict, clock.Add(op.seal))
	case "abandon":
		e.Abandon(strict)
	case "purge":
		e.Purge(strict)
	case "purgevc":
		e.PurgeVC(vc)
	case "gc":
		e.GC()
	case "fetch":
		e.Fetch(strict)
	case "status":
		e.Status(strict)
	case "setttl":
		e.SetTTL(op.ttl)
	}
}

// buildOracle replays the committed prefix into a fresh in-memory store and
// performs the same in-flight abandonment recovery does. crashIdx < 0 means
// no crash (full stream); otherwise ops before crashIdx are committed, and
// the crashing op itself is committed iff durableCrash.
func buildOracle(ops []harnessOp, crashIdx int, durableCrash bool) *storage.Store {
	clock := fixtures.Epoch
	mem := storage.NewStore(func() time.Time { return clock })
	for i, op := range ops {
		if crashIdx >= 0 {
			if i > crashIdx || (i == crashIdx && !durableCrash) {
				break
			}
		}
		applyHarnessOp(mem, op, &clock)
	}
	for _, sig := range mem.InFlightSigs() {
		mem.Abandon(sig)
	}
	return mem
}

// canonical renders a store state in the snapshot codec's canonical byte
// form — the representation the byte-identical assertions compare.
func canonical(st *storage.StoreState) []byte { return encodeState(st, 0, 0) }

// writeCrashRepro persists the failing scenario's coordinates so CI can
// upload them as an artifact and the failure can be replayed locally.
func writeCrashRepro(t *testing.T, point fault.Point, seed uint64, detail string) {
	t.Helper()
	name := fmt.Sprintf("crash-repro-%s-seed%d.txt", point, seed)
	body := fmt.Sprintf("point=%s\nseed=%d\nops=300\nrate=%v\ndetail=%s\nreplay: go test ./internal/storage/durable -run TestCrashRecoveryHarness/%s/seed%d\n",
		point, seed, crashRate(point), detail, point, seed)
	if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
		t.Logf("could not write crash repro file: %v", err)
	}
}

// crashRate picks the injection rate per point. Snapshot-crash decisions only
// occur at snapshot boundaries (1 in SnapshotEvery records), so that point
// needs a much higher per-decision rate to crash most seeds.
func crashRate(point fault.Point) float64 {
	if point == fault.DurableCrashSnapshot {
		return 0.45
	}
	return 0.04
}

// runCrashScenario executes one (point, seed) cell of the harness and
// reports whether a crash actually fired for that seed.
func runCrashScenario(t *testing.T, point fault.Point, seed uint64) bool {
	t.Helper()
	dir := t.TempDir()
	ops := genOps(seed, 300)
	inj := fault.New(fault.Config{Seed: seed, Rates: map[fault.Point]float64{point: crashRate(point)}})
	eng, err := open(dir, options{snapshotEvery: 16, faults: inj})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	clock := fixtures.Epoch
	eng.SetNow(func() time.Time { return clock })

	crashIdx := -1
	for i, op := range ops {
		applyHarnessOp(eng, op, &clock)
		if _, crashed := eng.Crashed(); crashed {
			crashIdx = i
			break
		}
	}
	durableCrash := eng.CrashWasDurable()
	if err := eng.Close(); err != nil {
		t.Fatalf("close after crash: %v", err)
	}

	rec, err := Open(dir)
	if err != nil {
		writeCrashRepro(t, point, seed, "reopen failed: "+err.Error())
		t.Fatalf("reopen after crash: %v", err)
	}
	defer rec.Close()
	oracle := buildOracle(ops, crashIdx, durableCrash)

	if got, want := canonical(rec.ExportState()), canonical(oracle.ExportState()); !bytes.Equal(got, want) {
		writeCrashRepro(t, point, seed, fmt.Sprintf("state mismatch: crashIdx=%d durable=%v got %d bytes want %d bytes", crashIdx, durableCrash, len(got), len(want)))
		t.Fatalf("recovered state differs from oracle (crashIdx=%d durable=%v)\n got: %x\nwant: %x", crashIdx, durableCrash, got, want)
	}

	// The visible read surface must match too, not just the raw export.
	if got, want := rec.Snapshot(), oracle.Snapshot(); got != want {
		writeCrashRepro(t, point, seed, fmt.Sprintf("counters mismatch: %+v vs %+v", got, want))
		t.Fatalf("recovered counters %+v, oracle %+v", got, want)
	}
	if got, want := len(rec.Views()), len(oracle.Views()); got != want {
		t.Fatalf("recovered %d views, oracle %d", got, want)
	}
	for _, vc := range harnessVCs {
		if got, want := rec.UsedBytes(vc), oracle.UsedBytes(vc); got != want {
			t.Fatalf("recovered UsedBytes(%s)=%d, oracle %d", vc, got, want)
		}
	}
	if err := rec.AuditBytes(); err != nil {
		writeCrashRepro(t, point, seed, "audit: "+err.Error())
		t.Fatalf("recovered byte ledger inconsistent: %v", err)
	}
	if n := rec.PendingViews(); n != 0 {
		t.Fatalf("recovery left %d in-flight views", n)
	}

	// Crash-point-specific recovery accounting.
	st := rec.Recovery()
	if crashIdx >= 0 {
		if point == fault.DurableCrashTorn && st.TornTailsTruncated != 1 {
			t.Fatalf("torn crash: TornTailsTruncated = %d, want 1", st.TornTailsTruncated)
		}
		if point != fault.DurableCrashTorn && st.TornTailsTruncated != 0 {
			t.Fatalf("%s crash: TornTailsTruncated = %d, want 0", point, st.TornTailsTruncated)
		}
	}

	// Recovery idempotence: reopening a recovered directory replays nothing
	// and reproduces the identical state.
	before := canonical(rec.ExportState())
	if err := rec.Close(); err != nil {
		t.Fatalf("close recovered engine: %v", err)
	}
	rec2, err := Open(dir)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer rec2.Close()
	if got := canonical(rec2.ExportState()); !bytes.Equal(before, got) {
		writeCrashRepro(t, point, seed, "recovery not idempotent")
		t.Fatalf("second recovery diverged from first")
	}
	st2 := rec2.Recovery()
	if st2.RecordsReplayed != 0 || st2.TornTailsTruncated != 0 {
		t.Fatalf("second recovery was not a fixed point: %+v", st2)
	}
	return crashIdx >= 0
}

// TestCrashRecoveryHarness is the headline crash-point matrix: every named
// durable crash point, each across many seeds; at least 8 seeds per point
// must actually crash for the cell to count as exercised.
func TestCrashRecoveryHarness(t *testing.T) {
	points := []fault.Point{fault.DurableCrashAppend, fault.DurableCrashTorn, fault.DurableCrashSnapshot}
	for _, point := range points {
		point := point
		t.Run(string(point), func(t *testing.T) {
			crashes := 0
			for seed := uint64(1); seed <= 16; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					if runCrashScenario(t, point, seed) {
						crashes++
					}
				})
			}
			if crashes < 8 {
				t.Fatalf("only %d/16 seeds crashed at %s; the point is under-exercised", crashes, point)
			}
		})
	}
}

// TestRecoverFaultFreeMatchesMemory proves the durable engine is, absent
// crashes, byte-identical to the in-memory store at every step: same ops,
// same clock, same state before close, and same state (modulo in-flight
// abandonment) after a graceful restart.
func TestRecoverFaultFreeMatchesMemory(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			ops := genOps(seed, 300)
			eng, err := open(dir, options{snapshotEvery: 32})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			clock := fixtures.Epoch
			eng.SetNow(func() time.Time { return clock })

			oclock := fixtures.Epoch
			mem := storage.NewStore(func() time.Time { return oclock })

			for _, op := range ops {
				applyHarnessOp(eng, op, &clock)
				applyHarnessOp(mem, op, &oclock)
			}
			if got, want := canonical(eng.ExportState()), canonical(mem.ExportState()); !bytes.Equal(got, want) {
				t.Fatalf("durable and in-memory stores diverged during fault-free run")
			}
			if err := eng.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			rec, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer rec.Close()
			// A restart abandons in-flight views; apply the same to the oracle.
			for _, sig := range mem.InFlightSigs() {
				mem.Abandon(sig)
			}
			if got, want := canonical(rec.ExportState()), canonical(mem.ExportState()); !bytes.Equal(got, want) {
				t.Fatalf("state after graceful restart differs from oracle")
			}
			st := rec.Recovery()
			if st.SnapshotsLoaded != 1 || st.RecordsReplayed != 0 {
				t.Fatalf("graceful restart should recover purely from snapshot, got %+v", st)
			}
		})
	}
}

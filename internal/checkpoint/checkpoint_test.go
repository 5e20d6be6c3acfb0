package checkpoint_test

import (
	"testing"
	"time"

	"cloudviews/internal/checkpoint"
	"cloudviews/internal/exec"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/storage"
)

const query = `SELECT MktSegment, COUNT(*) AS n, AVG(Price) AS p
	FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id
	WHERE Quantity > 2
	GROUP BY MktSegment`

func setup(t *testing.T) (plan.Node, *signature.Signer, *storage.Store, *exec.Executor) {
	t.Helper()
	cat, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparser.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	b := &plan.Binder{Catalog: cat}
	n, err := b.BindQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	root := &plan.Output{Target: "out/x", Child: n}
	signer := &signature.Signer{EngineVersion: "cp-test"}
	store := storage.NewStore(func() time.Time { return fixtures.Epoch })
	ex := &exec.Executor{Catalog: cat, Views: store}
	return root, signer, store, ex
}

func TestFailureStats(t *testing.T) {
	fs := checkpoint.NewFailureStats()
	if fs.Rate("Aggregate") != 0 {
		t.Error("unseen op must have rate 0")
	}
	for i := 0; i < 10; i++ {
		fs.Observe("Aggregate", i < 3)
	}
	if got := fs.Rate("Aggregate"); got != 0.3 {
		t.Errorf("rate = %g, want 0.3", got)
	}
}

func TestInstrumentPlacesCheckpointBelowRiskyOp(t *testing.T) {
	root, signer, store, ex := setup(t)
	fs := checkpoint.NewFailureStats()
	for i := 0; i < 10; i++ {
		fs.Observe("Aggregate", i < 2) // aggregates fail 20% of the time
	}
	instrumented, placements := checkpoint.Instrument(root, signer, fs, store, "vc1", checkpoint.Policy{})
	if len(placements) == 0 {
		t.Fatal("no checkpoints placed")
	}
	if placements[0].Below != "Aggregate" {
		t.Errorf("checkpoint below %s, want Aggregate", placements[0].Below)
	}
	spools := 0
	plan.Walk(instrumented, func(n plan.Node) {
		if _, ok := n.(*plan.Spool); ok {
			spools++
		}
	})
	if spools != len(placements) {
		t.Errorf("spools=%d placements=%d", spools, len(placements))
	}

	// Executing the instrumented plan writes the checkpoints.
	res, err := ex.Run(instrumented)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range placements {
		store.Seal(p.Strict)
		if _, st := store.Status(p.Strict); !st.Servable() {
			t.Errorf("checkpoint %s not available after run", p.Strict.Short())
		}
	}
	_ = res
}

func TestInstrumentNoRiskNoCheckpoints(t *testing.T) {
	root, signer, store, _ := setup(t)
	fs := checkpoint.NewFailureStats()
	got, placements := checkpoint.Instrument(root, signer, fs, store, "vc1", checkpoint.Policy{})
	if len(placements) != 0 {
		t.Errorf("placements = %d, want 0 without failure history", len(placements))
	}
	if plan.Format(got) != plan.Format(root) {
		t.Error("plan must be unchanged")
	}
}

func TestRecoverReusesCheckpoint(t *testing.T) {
	root, signer, store, ex := setup(t)
	fs := checkpoint.NewFailureStats()
	for i := 0; i < 10; i++ {
		fs.Observe("Aggregate", true)
	}
	instrumented, placements := checkpoint.Instrument(root, signer, fs, store, "vc1", checkpoint.Policy{})
	if len(placements) == 0 {
		t.Fatal("no checkpoints")
	}
	// First attempt runs to the point of checkpointing (we simulate the
	// failure AFTER the spool completed: early sealing preserved the work).
	full, err := ex.Run(instrumented)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range placements {
		store.Seal(p.Strict)
	}

	// Resubmission: recover loads the checkpoint.
	recovered, n := checkpoint.Recover(root, signer, store)
	if n != len(placements) {
		t.Fatalf("recovered %d checkpoints, want %d", n, len(placements))
	}
	ex2 := &exec.Executor{Catalog: ex.Catalog, Views: store}
	res, err := ex2.Run(recovered)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Fingerprint() != full.Table.Fingerprint() {
		t.Error("recovered run produced different results")
	}
	if res.TotalWork >= full.TotalWork {
		t.Errorf("recovery should be cheaper: %g vs %g", res.TotalWork, full.TotalWork)
	}
	if viewRead(res) == 0 {
		t.Error("recovery must read from the checkpoint")
	}
}

// viewRead sums what a run's ViewScans read.
func viewRead(res *exec.RunResult) (n int64) {
	for _, st := range res.Stats {
		if _, ok := st.Node.(*plan.ViewScan); ok {
			n += st.Read
		}
	}
	return n
}

func TestMaxCheckpointsRespected(t *testing.T) {
	root, signer, store, _ := setup(t)
	fs := checkpoint.NewFailureStats()
	for _, op := range []string{"Aggregate", "Join", "Filter", "Project", "Output"} {
		for i := 0; i < 10; i++ {
			fs.Observe(op, true)
		}
	}
	_, placements := checkpoint.Instrument(root, signer, fs, store, "vc1", checkpoint.Policy{MaxCheckpoints: 1})
	if len(placements) != 1 {
		t.Errorf("placements = %d, want 1", len(placements))
	}
}

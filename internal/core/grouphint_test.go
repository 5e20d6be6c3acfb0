package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/workload"
)

// aggregateOf returns the position of the one Aggregate of a compiled plan.
func aggregateOf(t *testing.T, cr *optimizer.CompileResult) int {
	t.Helper()
	for i, s := range cr.Subs {
		if _, ok := s.Node.(*plan.Aggregate); ok {
			return i
		}
	}
	t.Fatal("the plan has no Aggregate")
	return exec.NoPos
}

// compileOnly compiles a job as CompileAndExecute would, without running it.
func compileOnly(t *testing.T, e *Engine, in workload.JobInput) *optimizer.CompileResult {
	t.Helper()
	opt := &optimizer.Optimizer{Signer: e.signerFor(in.Runtime), Est: e.Est, History: e.History}
	prep, err := e.prepare(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	return opt.CompilePrepared(prep, optimizer.CompileOptions{JobID: in.ID, Cluster: in.Cluster, VC: in.VC, OptIn: in.OptIn})
}

// hintScripts are two grouped scripts over pcEngine's Events, each job with
// its own @lo so no job replays another's result.
var hintScripts = []string{
	`r = SELECT Region, COUNT(*) AS n, SUM(Value) AS s FROM Events WHERE Value > @lo GROUP BY Region;
OUTPUT r TO "out/r";`,
	`r = SELECT Id % 7 AS k, MAX(Value) AS hi FROM Events WHERE Value > @lo GROUP BY Id % 7;
OUTPUT r TO "out/k";`,
}

func hintInput(id string, script int, lo int64) workload.JobInput {
	in := pcInput(id, hintScripts[script])
	in.Params = map[string]data.Value{"lo": data.Int(lo)}
	return in
}

// TestGroupTableHintComesFromHistory follows the statistics feedback that
// sizes an aggregate's group table end to end. A recurring grouped script
// runs on one catalog generation; on the next, its Aggregate's ObservedRows
// is the first run's RowsOut. A script that has never run reports nothing,
// although the compile-time model estimates its Aggregate. Then both scripts
// run concurrently, so under -race each compile reads history while other
// jobs record into it; every answer must equal a twin engine's, whose jobs
// run one at a time.
func TestGroupTableHintComesFromHistory(t *testing.T) {
	engine := func() *Engine {
		e := pcEngine(t, Config{})
		// Rows execute small and account 400× big: a grouped output scales
		// by sqrt(400), which the executor's hint undoes.
		e.Catalog.SetScaleFactor("Events", 400)
		return e
	}
	e, twin := engine(), engine()

	first, err := e.CompileAndExecute(hintInput("g1", 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	var observed int64 = -1
	for _, st := range first.Exec.Stats {
		if st.Node.OpName() == "Aggregate" {
			observed = st.RowsOut
		}
	}
	if groups := first.Exec.Table.NumRows(); observed != int64(float64(groups)*math.Sqrt(400)) {
		t.Fatalf("the aggregate's RowsOut is %d for %d groups at scale 400", observed, groups)
	}

	// The next generation, on both engines: new rows, the same three regions.
	tb := data.NewTable(data.Schema{
		{Name: "Id", Kind: data.KindInt},
		{Name: "Region", Kind: data.KindString},
		{Name: "Value", Kind: data.KindFloat},
	})
	for i := 0; i < 240; i++ {
		tb.Append(data.Row{data.Int(int64(i)), data.String_([]string{"us", "eu", "asia"}[i%3]), data.Float(float64(i % 40))})
	}
	for _, eng := range []*Engine{e, twin} {
		if _, err := eng.Catalog.BulkUpdate("Events", fixtures.Epoch.Add(time.Hour), tb); err != nil {
			t.Fatal(err)
		}
	}
	cr := compileOnly(t, e, hintInput("g2", 0, 6))
	if rows, ok := cr.ObservedRows(aggregateOf(t, cr)); !ok || rows != float64(observed) {
		t.Fatalf("second generation: ObservedRows = %v, %v; want the first run's %d", rows, ok, observed)
	}

	fresh := compileOnly(t, e, hintInput("k1", 1, 5))
	agg := aggregateOf(t, fresh)
	if est := fresh.Nodes[agg].Est; !(est.Rows > 0) {
		t.Fatalf("the compile-time model gave the new script's Aggregate no estimate: %+v", est)
	}
	if rows, ok := fresh.ObservedRows(agg); ok {
		t.Fatalf("a script that never ran reports %v observed rows", rows)
	}
	if rows, ok := fresh.ObservedRows(exec.NoPos); ok {
		t.Fatalf("a node with no position reports %v observed rows", rows)
	}

	const workers, jobs = 8, 4
	want := make([]string, workers*jobs)
	for j := range want {
		run, err := twin.CompileAndExecute(hintInput(fmt.Sprintf("c%d", j), j%2, int64(j)))
		if err != nil {
			t.Fatal(err)
		}
		want[j] = run.Exec.Table.Fingerprint()
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobs; i++ {
				j := w*jobs + i
				run, err := e.CompileAndExecute(hintInput(fmt.Sprintf("c%d", j), j%2, int64(j)))
				if err != nil {
					errs <- err
					return
				}
				if got := run.Exec.Table.Fingerprint(); got != want[j] {
					errs <- fmt.Errorf("job c%d: output %s, want %s", j, got, want[j])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

package optimizer_test

import (
	"testing"

	"cloudviews/internal/catalog"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/workload"
)

// coldCompileAllocCeiling bounds the mean allocations of one cold compile —
// parse, bind and Prepare — over the generator's first day: it read 379 when
// every expression was rendered into a string of its own at every level, and
// 130 once binding, normalization and signing render into stack buffers.
const coldCompileAllocCeiling = 240

// TestColdCompileAllocCeiling compiles every job of the generator's first day
// cold, as the engine does a script its plan cache does not know.
func TestColdCompileAllocCeiling(t *testing.T) {
	cat := catalog.New()
	p := workload.DefaultProfile("Cold")
	p.RowsPerRawDay = 80
	gen := workload.NewGenerator(cat, p)
	if err := gen.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	jobs := gen.JobsForDay(1)
	opt := &optimizer.Optimizer{Signer: &signature.Signer{EngineVersion: "cold"}}
	var total float64
	for _, in := range jobs {
		total += testing.AllocsPerRun(3, func() {
			script, err := sqlparser.Parse(in.Script)
			if err != nil {
				t.Fatal(err)
			}
			outs, err := (&plan.Binder{Catalog: cat, Params: in.Params}).BindScript(script)
			if err != nil || len(outs) != 1 {
				t.Fatalf("bind %s: %d outputs, %v", in.ID, len(outs), err)
			}
			opt.Prepare(outs[0])
		})
	}
	mean := total / float64(len(jobs))
	t.Logf("%.1f allocations per cold compile over %d jobs (ceiling %d)", mean, len(jobs), coldCompileAllocCeiling)
	if mean > coldCompileAllocCeiling {
		t.Errorf("%.1f allocations per cold compile, ceiling %d", mean, coldCompileAllocCeiling)
	}
}

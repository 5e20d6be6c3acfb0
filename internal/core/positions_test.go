package core

import (
	"testing"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/exec"
	"cloudviews/internal/fault"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/workload"
)

// TestNodeStatPositionsMatchTheirNodes runs the generator's templates through
// three days of the feedback loop with 30 % of view reads failing, and holds
// every NodeStat a job records to its compile's enumeration: a stat with a
// position names the node at that position, positions ascend, and every
// position has its stat except a ViewScan that fell back. A stat with no
// position is a Spool's or one of the fallback tail's, a node under a
// ViewScan's fallback. The days must build under Spools, fall back, and
// replay result-cache entries recorded at another position than the one they
// are replayed at, which relabels them by offset.
func TestNodeStatPositionsMatchTheirNodes(t *testing.T) {
	p := workload.DefaultProfile("positions")
	p.Pipelines, p.RowsPerRawDay = 24, 80
	cat := catalog.New()
	gen := workload.NewGenerator(cat, p)
	if err := gen.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{
		ClusterName: p.Name, Catalog: cat, ClusterCfg: cluster.Config{Capacity: 400},
		Selection: analysis.SelectionConfig{UseBigSubs: true},
		Faults:    fault.Config{Seed: 7, Rates: map[fault.Point]float64{fault.ViewRead: 0.3}},
	})
	for _, vc := range gen.VCNames() {
		e.OnboardVC(vc)
	}
	var jobs, spools, tail, relabeled int
	for day := 0; day < 3; day++ {
		if day > 0 {
			if err := gen.AdvanceDay(day); err != nil {
				t.Fatal(err)
			}
		}
		for _, in := range gen.JobsForDay(day) {
			run, err := e.CompileAndExecute(in)
			if err != nil {
				t.Fatal(err)
			}
			s, f, r := checkPositions(t, e.resultCache(), run)
			jobs, spools, tail, relabeled = jobs+1, spools+s, tail+f, relabeled+r
		}
		e.RunAnalysis(fixtures.Epoch.AddDate(0, 0, day-7), fixtures.Epoch.AddDate(0, 0, day+1))
	}
	t.Logf("%d jobs: %d Spool stats, %d fallback-tail stats, %d positions replayed from an entry recorded elsewhere", jobs, spools, tail, relabeled)
	if spools == 0 || tail == 0 || relabeled == 0 {
		t.Fatalf("vacuous: %d Spool stats, %d fallback-tail stats, %d relabeled positions over %d jobs", spools, tail, relabeled, jobs)
	}
}

// checkPositions holds run's stats to its compile's positions and counts its
// Spool stats, its fallback-tail stats, and the positions whose stat came
// from a result-cache entry recorded at another position (a stored entry keeps
// its producer's positions; a replay relabels its own copy).
func checkPositions(t *testing.T, cache *exec.Cache, run *JobRun) (spools, tail, relabeled int) {
	t.Helper()
	cr, id := run.Compile, run.Input.ID
	fallback := map[plan.Node]bool{}
	plan.Walk(cr.Plan, func(n plan.Node) {
		if v, ok := n.(*plan.ViewScan); ok && v.Fallback != nil {
			plan.Walk(v.Fallback, func(m plan.Node) { fallback[m] = true })
		}
	})
	seen := make([]bool, len(cr.Subs))
	last := -1
	for k, st := range run.Exec.Stats {
		if st.Pos == exec.NoPos {
			if _, spool := st.Node.(*plan.Spool); spool {
				spools++
			} else if fallback[st.Node] {
				tail++
			} else {
				t.Errorf("%s: stat %d, a %s, has no position", id, k, st.Node.OpName())
			}
			continue
		}
		pos := int(st.Pos)
		if pos <= last || pos >= len(cr.Subs) {
			t.Fatalf("%s: stat %d at position %d, after %d, of %d positions", id, k, pos, last, len(cr.Subs))
		}
		if cr.Subs[pos].Node != st.Node {
			t.Fatalf("%s: stat %d, a %s, names position %d, a %s, in\n%s", id, k, st.Node.OpName(), pos, cr.Subs[pos].Op, plan.Format(cr.Plan))
		}
		last, seen[pos] = pos, true
	}
	missing := 0
	for i, ran := range seen {
		if !ran {
			missing++
			if cr.Subs[i].Op != "ViewScan" {
				t.Errorf("%s: position %d, a %s, has no stat", id, i, cr.Subs[i].Op)
			}
		} else if key := cr.Nodes[i].Key; key != "" {
			if entry, ok := cache.Get(key); ok && int(entry.Stats[len(entry.Stats)-1].Pos) != i {
				relabeled++
			}
		}
	}
	if missing != len(run.Exec.FallbackSigs) {
		t.Errorf("%s: %d positions have no stat, %d ViewScans fell back", id, missing, len(run.Exec.FallbackSigs))
	}
	return spools, tail, relabeled
}

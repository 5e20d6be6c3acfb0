package core

import (
	"fmt"
	"testing"

	"cloudviews/internal/data"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
)

// requireSameExecution fails unless two runs of one job, one on the row loops
// and one on the kernels, answered the same rows in the same order and
// accounted every operator alike — all of NodeStat but the plan node and
// Batches, which the row loops never count — with the same result-cache hits.
func requireSameExecution(t *testing.T, id string, row, vec *JobRun) {
	t.Helper()
	if orderedDigest(row.Exec.Table) != orderedDigest(vec.Exec.Table) {
		t.Fatalf("%s: the kernels' output differs from the row loops'", id)
	}
	r, v := row.Exec, vec.Exec
	if r.CacheHits != v.CacheHits {
		t.Fatalf("%s: %d result-cache hits on the row loops, %d on the kernels", id, r.CacheHits, v.CacheHits)
	}
	if len(r.Stats) != len(v.Stats) {
		t.Fatalf("%s: %d operator stats on the row loops, %d on the kernels", id, len(r.Stats), len(v.Stats))
	}
	for i, a := range r.Stats {
		b := v.Stats[i]
		a.Node, b.Node, a.Batches, b.Batches = nil, nil, 0, 0
		if a != b {
			t.Fatalf("%s: operator %d on the row loops %+v, on the kernels %+v", id, i, a, b)
		}
	}
	if r.TotalWork != v.TotalWork || r.TotalRead != v.TotalRead || r.InputBytes != v.InputBytes || r.SpoolWork != v.SpoolWork {
		t.Fatalf("%s: run totals differ", id)
	}
}

// joinParents counts, by the parent's operator, the joins a run executed.
func joinParents(run *JobRun, into map[string]int) {
	parent := map[plan.Node]string{}
	plan.Walk(run.Compile.Plan, func(n plan.Node) {
		var buf [2]plan.Node
		for _, c := range plan.Inputs(n, &buf) {
			parent[c] = n.OpName()
		}
	})
	for _, st := range run.Exec.Stats {
		if st.Node.OpName() == "Join" {
			into[parent[st.Node]]++
		}
	}
}

// kernelTraffic counts, by operator, the Filters, Projects, Aggregates and
// keyed Joins of a run that read at least one row, into read, and those of
// them that ran on the row loop (Batches 0), into declined.
func kernelTraffic(run *JobRun, read, declined map[string]int) {
	rowsOut := map[plan.Node]int64{}
	for _, st := range run.Exec.Stats {
		rowsOut[st.Node] = st.RowsOut
	}
	for _, st := range run.Exec.Stats {
		switch x := st.Node.(type) {
		case *plan.Filter, *plan.Project, *plan.Aggregate:
		case *plan.Join:
			if len(x.LeftKeys) == 0 {
				continue
			}
		default:
			continue
		}
		var buf [2]plan.Node
		var in int64
		for _, c := range plan.Inputs(st.Node, &buf) {
			in += rowsOut[c]
		}
		if in == 0 {
			continue
		}
		read[st.Node.OpName()]++
		if st.Batches == 0 {
			declined[st.Node.OpName()]++
		}
	}
}

// TestRowLoopsMatchKernelsOverGeneratedDays runs the generator's feedback
// loop through two engines in lockstep, one on the row loops and one on the
// kernels, for four days: bulk updates, cooking jobs that publish, views
// selected, spooled and matched, result-cache replays. The profile (seed 3 of
// the small one) puts joins under aggregates (the local-join tail),
// projections (the two-cooked-stream prefix), other joins (the dimension
// prefix under a local join), UDOs and Spools. Every job must answer the same rows in
// the same order, with the same NodeStats — BytesOut and Work included — and
// the same cache hits: a filter that hands over a selection and a join that
// hands over pairs change what the executor allocates and nothing the
// simulator sees. And the kernels cover the traffic: every Filter, Project,
// Aggregate and keyed Join the kernel world runs over at least one row
// reports batches. An arm the generated jobs execute that a kernel declines
// fails here.
func TestRowLoopsMatchKernelsOverGeneratedDays(t *testing.T) {
	p := smallProfile("Lockstep")
	p.Seed = 3
	row, vec := newWorld(t, p, 0), newWorld(t, p, 0)
	row.eng.rowLoops = true
	parents, read, declined := map[string]int{}, map[string]int{}, map[string]int{}
	var jobs, pairsDays int
	for day := 0; day < 4; day++ {
		if day > 0 {
			for _, w := range []*derivedWorld{row, vec} {
				if err := w.gen.AdvanceDay(day); err != nil {
					t.Fatal(err)
				}
			}
		}
		rowCache, vecCache := row.eng.resetCache(), vec.eng.resetCache()
		for _, in := range row.gen.JobsForDay(day) {
			r, rerr := row.eng.CompileAndExecute(in)
			v, verr := vec.eng.CompileAndExecute(in)
			if rerr != nil || verr != nil {
				t.Fatalf("%s: row loops %v, kernels %v", in.ID, rerr, verr)
			}
			requireSameExecution(t, in.ID, r, v)
			joinParents(v, parents)
			kernelTraffic(v, read, declined)
			jobs++
		}
		// The kernels' pairs are the entries their cache lacks.
		if vecCache.Len() < rowCache.Len() {
			pairsDays++
		}
		for _, w := range []*derivedWorld{row, vec} {
			dayStart := fixtures.Epoch.AddDate(0, 0, day)
			w.eng.RunAnalysis(dayStart.AddDate(0, 0, -7), dayStart.AddDate(0, 0, 1))
		}
	}
	t.Logf("%d jobs; executed joins by parent: %v; %d of 4 days handed pairs to a parent", jobs, parents, pairsDays)
	for _, op := range []string{"Aggregate", "Project", "Join", "UDO", "Spool"} {
		if parents[op] == 0 {
			t.Errorf("no job executed a join under a %s", op)
		}
	}
	if pairsDays == 0 {
		t.Error("no join handed over pairs: the kernels' result cache holds every entry the row loops' does")
	}
	t.Logf("operators that read rows on the kernels: %v; of them on the row loop: %v", read, declined)
	for _, op := range []string{"Filter", "Project", "Aggregate", "Join"} {
		if read[op] == 0 {
			t.Errorf("no %s read a row", op)
		}
		if declined[op] != 0 {
			t.Errorf("%d of %d %ss that read rows ran on the row loop: a kernel declines an arm the workload runs", declined[op], read[op], op)
		}
	}
}

// TestSortAndSampleOverJoinDoNotNarrow compiles, signs and executes ORDER BY
// and SAMPLE over a join on both executor arms. Sort and Sample read rows
// (Sample hashes each cell), so their join builds them and its table enters
// the result cache under its key; an aggregate over the same join, the
// contrast, reads its pairs on the kernels and leaves nothing there.
func TestSortAndSampleOverJoinDoNotNarrow(t *testing.T) {
	engines := map[bool]*Engine{}
	for _, rowLoops := range []bool{true, false} {
		e := pcEngine(t, Config{})
		e.rowLoops = rowLoops
		schema := data.Schema{{Name: "Name", Kind: data.KindString}, {Name: "Zone", Kind: data.KindInt}}
		if _, err := e.Catalog.Define("Regions", schema); err != nil {
			t.Fatal(err)
		}
		dim := data.NewTable(schema)
		for i, r := range []string{"us", "eu", "asia"} {
			dim.Append(data.Row{data.String_(r), data.Int(int64(i))})
		}
		if _, err := e.Catalog.BulkUpdate("Regions", fixtures.Epoch, dim); err != nil {
			t.Fatal(err)
		}
		engines[rowLoops] = e
	}
	const join = `Events JOIN Regions ON Events.Region = Regions.Name`
	for _, c := range []struct {
		query string
		pairs bool // the join hands its parent pairs on the kernels
	}{
		{`SELECT * FROM ` + join + ` ORDER BY Value DESC, Id`, false},
		{`SELECT * FROM ` + join + ` SAMPLE 40 PERCENT`, false},
		{`SELECT * FROM ` + join + ` WHERE Zone > 0 ORDER BY Zone, Value DESC SAMPLE 40 PERCENT`, false},
		{`SELECT Zone, SUM(Value) AS v FROM ` + join + ` GROUP BY Zone`, true},
	} {
		in := pcInput(fmt.Sprintf("q%x", len(c.query)), "r = "+c.query+";\nOUTPUT r TO \"out/r\";")
		runs := map[bool]*JobRun{}
		for rowLoops, e := range engines {
			e.resetCache() // an earlier query's join would serve this one
			run, err := e.CompileAndExecute(in)
			if err != nil {
				t.Fatalf("%s: %v", c.query, err)
			}
			var joinSig signature.Sig
			plan.Walk(run.Compile.Plan, func(n plan.Node) {
				if _, ok := n.(*plan.Join); ok {
					joinSig = run.Compile.Physical[n]
				}
			})
			if joinSig == "" {
				t.Fatalf("%s: no join in the compiled plan", c.query)
			}
			_, cached := e.resultCache().Get(joinSig)
			if want := rowLoops || !c.pairs; cached != want {
				t.Errorf("%s (row loops %v): join table cached = %v, want %v", c.query, rowLoops, cached, want)
			}
			runs[rowLoops] = run
		}
		if runs[false].Exec.Table.NumRows() == 0 {
			t.Fatalf("%s: empty answer", c.query)
		}
		requireSameExecution(t, c.query, runs[true], runs[false])
	}
}

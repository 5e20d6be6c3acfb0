package core

import (
	"math"
	"reflect"
	"testing"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/exec"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/workload"
)

// refStage and referenceStageSpecs are the stage lowering as it was when it
// built a pointer per stage and a by-node map, then copied the result into
// the cluster's form: the oracle for BuildStages + stageSpecs.
type refStage struct {
	id      int
	node    plan.Node
	op      string
	width   int
	deps    []*refStage
	isSpool bool
}

func referenceStageSpecs(cr *optimizer.CompileResult, res *exec.RunResult) []cluster.StageSpec {
	est := cr.Estimates
	width := func(rows float64) int {
		w := int(math.Ceil(rows / optimizer.RowsPerPartition))
		return max(1, min(w, optimizer.MaxStageWidth))
	}
	var stages []*refStage
	var rec func(n plan.Node) *refStage
	rec = func(n plan.Node) *refStage {
		var buf [2]plan.Node
		children := plan.Inputs(n, &buf)
		deps := make([]*refStage, 0, len(children))
		for _, c := range children {
			deps = append(deps, rec(c))
		}
		if sp, ok := n.(*plan.Spool); ok {
			st := &refStage{id: len(stages), node: n, op: "Spool", width: width(est[sp.Child].Rows), deps: []*refStage{deps[0]}, isSpool: true}
			stages = append(stages, st)
			return deps[0]
		}
		var inputRows float64
		if len(children) == 0 {
			inputRows = est[n].Rows
		} else {
			for _, c := range children {
				inputRows += est[c].Rows
			}
		}
		st := &refStage{id: len(stages), node: n, op: n.OpName(), width: width(inputRows), deps: deps}
		stages = append(stages, st)
		return st
	}
	rec(cr.Plan)

	specs := make([]cluster.StageSpec, len(stages))
	var totalWeight float64
	spoolStages := 0
	for i, st := range stages {
		specs[i] = cluster.StageSpec{Width: st.width, IsSpool: st.isSpool}
		if len(st.deps) > 0 {
			specs[i].Deps = make([]int, len(st.deps))
			for k, d := range st.deps {
				specs[i].Deps[k] = d.id
			}
		}
		if st.isSpool {
			spoolStages++
			continue
		}
		specs[i].Work = estimatedOpWork(st.op, est[st.node])
		totalWeight += specs[i].Work
	}
	nonSpoolWork := res.TotalWork - res.SpoolWork
	for i := range specs {
		if specs[i].IsSpool {
			specs[i].Work = res.SpoolWork / float64(spoolStages)
		} else if totalWeight > 0 {
			specs[i].Work = nonSpoolWork * specs[i].Work / totalWeight
		} else {
			specs[i].Work = nonSpoolWork / float64(len(specs))
		}
	}
	return specs
}

// TestStageLoweringMatchesReference runs the generator's templates through
// the feedback loop — a day with nothing selected, a day that builds under
// Spools, a day that reads ViewScans — and holds every job's stage DAG to the
// reference lowering: order, Width, Deps, IsSpool, and Work to the bit.
func TestStageLoweringMatchesReference(t *testing.T) {
	p := workload.DefaultProfile("stages")
	p.Pipelines, p.RowsPerRawDay = 24, 80
	cat := catalog.New()
	gen := workload.NewGenerator(cat, p)
	if err := gen.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{
		ClusterName: p.Name, Catalog: cat, ClusterCfg: cluster.Config{Capacity: 400},
		Selection: analysis.SelectionConfig{UseBigSubs: true},
	})
	for _, vc := range gen.VCNames() {
		e.OnboardVC(vc)
	}
	jobs, spools, views, joins := 0, 0, 0, 0
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
			if want := referenceStageSpecs(run.Compile, run.Exec); !reflect.DeepEqual(run.Stages, want) {
				t.Fatalf("%s: stages differ from the reference lowering of\n%s\ngot:  %+v\nwant: %+v", in.ID, plan.Format(run.Compile.Plan), run.Stages, want)
			}
			jobs++
			for _, st := range run.Stages {
				if st.IsSpool {
					spools++
				}
				if len(st.Deps) == 2 {
					joins++
				}
			}
			views += len(run.Compile.Matched)
		}
		e.RunAnalysis(fixtures.Epoch.AddDate(0, 0, day-7), fixtures.Epoch.AddDate(0, 0, day+1))
	}
	t.Logf("%d jobs: %d spool stages, %d matched views, %d two-input stages", jobs, spools, views, joins)
	if spools == 0 || views == 0 || joins == 0 {
		t.Fatalf("vacuous: %d spool stages, %d matched views, %d two-input stages over %d jobs", spools, views, joins, jobs)
	}
}

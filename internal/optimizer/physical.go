package optimizer

import (
	"math"

	"cloudviews/internal/cluster"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/stats"
)

// Physical planning thresholds.
const (
	// loopJoinRows: below this (estimated) input size, broadcast loop join
	// beats building a hash table.
	loopJoinRows = 2000
	// mergeJoinRows: above this on both sides, SCOPE prefers sort-merge to
	// bound memory.
	mergeJoinRows = 2_000_000
	// RowsPerPartition controls stage width: width = ceil(inputRows /
	// RowsPerPartition). Cardinality overestimates therefore directly
	// over-partition stages — the §3.5 effect.
	RowsPerPartition = 1_000_000
	// MaxStageWidth caps any single stage.
	MaxStageWidth = 256
)

// JoinAlgo is the physical algorithm for the join at position pos of the
// final plan, picked from its inputs' (history-refreshed) estimates: part of
// the executor's exec.Compiled, and the algorithm a job's record reports. A
// join with no position, one under a ViewScan's fallback, was not planned and
// is JoinAuto.
func (cr *CompileResult) JoinAlgo(pos int) plan.JoinAlgo {
	if pos < 0 {
		return plan.JoinAuto
	}
	j := cr.Subs[pos].Node.(*plan.Join)
	l := cr.Nodes[signature.InputPos(cr.Subs, pos, 0)].Est
	r := cr.Nodes[signature.InputPos(cr.Subs, pos, 1)].Est
	switch {
	case len(j.LeftKeys) == 0, math.Min(l.Rows, r.Rows) <= loopJoinRows:
		return plan.JoinLoop
	case l.Rows >= mergeJoinRows && r.Rows >= mergeJoinRows:
		return plan.JoinMerge
	default:
		return plan.JoinHash
	}
}

// BuildStages lowers a compiled plan into the stage DAG the cluster simulator
// schedules, one stage per operator in post-order. (SCOPE fuses pipelined
// operators into stages; one operator per stage keeps the simulator simple
// while preserving the DAG shape and width dynamics.) Width derives from the
// estimated input rows of each operator; with accurate (history or view)
// statistics the widths shrink, reproducing the paper's container savings.
// A stage's Work is its operator's estimated work, a weight for the engine to
// scale to the run's measured work; a Spool's is 0.
func BuildStages(root plan.Node, nodes []NodeInfo) []cluster.StageSpec {
	count := plan.CountNodes(root)
	stages := make([]cluster.StageSpec, 0, count)
	// Every stage but the root's is read by exactly one other, so all Deps
	// are cut from one array.
	deps := make([]int, 0, count)
	next := 0 // positions come in this walk's order; a Spool takes its child's
	var rec func(n plan.Node) int
	rec = func(n plan.Node) int {
		var buf [2]plan.Node
		var idBuf [2]int
		ids := idBuf[:0]
		// Width follows the estimated rows flowing INTO the operator (its
		// children's output), except sources which use their own estimate.
		var inputRows float64
		for _, c := range plan.Inputs(n, &buf) {
			ids = append(ids, rec(c))
			inputRows += nodes[next-1].Est.Rows // c's position, the last taken
		}
		var st cluster.StageSpec
		if _, st.IsSpool = n.(*plan.Spool); !st.IsSpool {
			st.Work = EstimatedOpWork(n.OpName(), nodes[next].Est)
			next++
		}
		if len(ids) == 0 {
			inputRows = nodes[next-1].Est.Rows
		}
		st.Width = stageWidth(inputRows)
		if len(ids) > 0 {
			first := len(deps)
			deps = append(deps, ids...)
			st.Deps = deps[first:len(deps):len(deps)]
		}
		stages = append(stages, st)
		if st.IsSpool {
			// The spool write hangs off its child but the PARENT of the spool
			// depends on the child directly: materialization is a side branch.
			return ids[0]
		}
		return len(stages) - 1
	}
	rec(root)
	return stages
}

// opWorkPerRow mirrors the executor's per-row cost model over estimates, used
// only for proportional work splitting.
var opWorkPerRow = map[string]float64{
	"Scan": 2.0e-6, "ViewScan": 2.0e-6, "Filter": 1.0e-6, "Project": 1.5e-6,
	"Join": 4.0e-6, "Aggregate": 3.0e-6, "Union": 0.2e-6, "UDO": 8.0e-6,
	"Sample": 0.8e-6, "Sort": 2.0e-6, "Output": 0.5e-6,
}

// EstimatedOpWork is the work an operator's estimate predicts: its stage's
// weight in BuildStages.
func EstimatedOpWork(op string, est stats.Estimate) float64 {
	perRow := opWorkPerRow[op]
	if perRow == 0 {
		perRow = 1.0e-6
	}
	return est.Rows*perRow + est.Bytes*2.0e-9 + 1e-9
}

func stageWidth(rows float64) int {
	return max(1, min(int(math.Ceil(rows/RowsPerPartition)), MaxStageWidth))
}

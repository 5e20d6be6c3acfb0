package optimizer

import (
	"math"

	"cloudviews/internal/plan"
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

// JoinAlgo is the physical algorithm for join j of the final plan, picked
// from its inputs' (history-refreshed) estimates: the other half of the
// executor's exec.Compiled, and the algorithm a job's record reports. A join
// outside the final plan, one under a ViewScan's fallback, was not planned and
// is JoinAuto.
func (cr *CompileResult) JoinAlgo(j *plan.Join) plan.JoinAlgo {
	if _, planned := cr.Estimates[j]; !planned {
		return plan.JoinAuto
	}
	l, r := cr.Estimates[j.L], cr.Estimates[j.R]
	switch {
	case len(j.LeftKeys) == 0:
		return plan.JoinLoop
	case math.Min(l.Rows, r.Rows) <= loopJoinRows:
		return plan.JoinLoop
	case l.Rows >= mergeJoinRows && r.Rows >= mergeJoinRows:
		return plan.JoinMerge
	default:
		return plan.JoinHash
	}
}

// Stage is one schedulable unit of a physical plan: a single operator with a
// planned container width. (SCOPE fuses pipelined operators into stages; one
// operator per stage keeps the simulator simple while preserving the DAG
// shape and width dynamics.)
type Stage struct {
	Node  plan.Node
	Op    string
	Width int
	// Deps are positions in BuildStages' result: the stages this one reads.
	Deps []int
	// IsSpool marks the view-write stage that runs in parallel with the rest
	// of the query (its latency is off the critical path; its work is not).
	IsSpool bool
}

// BuildStages lowers a compiled plan into the stage DAG used by the cluster
// simulator, one stage per operator in post-order. Width derives from the
// estimated input rows of each operator; with accurate (history or view)
// statistics the widths shrink, reproducing the paper's container savings.
func BuildStages(root plan.Node, est map[plan.Node]stats.Estimate) []Stage {
	count := plan.CountNodes(root)
	stages := make([]Stage, 0, count)
	// Every stage but the root's is read by exactly one other, so all Deps
	// are cut from one array.
	deps := make([]int, 0, count)
	var rec func(n plan.Node) int
	rec = func(n plan.Node) int {
		var buf [2]plan.Node
		var idBuf [2]int
		ids := idBuf[:0]
		inputs := plan.Inputs(n, &buf)
		// Width follows the estimated rows flowing INTO the operator (its
		// children's output), except sources which use their own estimate.
		var inputRows float64
		if len(inputs) == 0 {
			inputRows = est[n].Rows
		}
		for _, c := range inputs {
			ids = append(ids, rec(c))
			inputRows += est[c].Rows
		}
		st := Stage{Node: n, Op: n.OpName(), Width: stageWidth(stats.Estimate{Rows: inputRows})}
		if len(ids) > 0 {
			first := len(deps)
			deps = append(deps, ids...)
			st.Deps = deps[first:len(deps):len(deps)]
		}
		_, st.IsSpool = n.(*plan.Spool)
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

func stageWidth(e stats.Estimate) int {
	w := int(math.Ceil(e.Rows / RowsPerPartition))
	if w < 1 {
		w = 1
	}
	if w > MaxStageWidth {
		w = MaxStageWidth
	}
	return w
}

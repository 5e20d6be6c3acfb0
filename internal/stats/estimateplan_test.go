package stats

import "cloudviews/internal/plan"

// EstimatePlan folds estimates over the whole tree and returns the per-node
// map plus the root estimate: the reference the estimator's tests read. The
// optimizer folds by position (CompileResult.Nodes) and builds no such map.
func (e *Estimator) EstimatePlan(root plan.Node) (map[plan.Node]Estimate, Estimate) {
	memo := make(map[plan.Node]Estimate)
	var rec func(n plan.Node) Estimate
	rec = func(n plan.Node) Estimate {
		var buf [2]plan.Node
		var ceBuf [2]Estimate
		ce := ceBuf[:0]
		for _, c := range plan.Inputs(n, &buf) {
			ce = append(ce, rec(c))
		}
		est := e.EstimateNode(n, ce)
		memo[n] = est
		return est
	}
	rootEst := rec(root)
	return memo, rootEst
}

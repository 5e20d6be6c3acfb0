// Package optimizer implements the SCOPE-like query optimizer with the
// CloudViews extensions: deterministic logical rewrites (so equivalent
// queries converge to the same normalized plans before signatures are
// computed), top-down view matching by strict-signature hash equality,
// bottom-up view-build proposal under insights-service locks, statistics
// refresh from materialized views and runtime history, physical join
// selection, and stage/width planning for the cluster simulator.
package optimizer

import (
	"slices"

	"cloudviews/internal/plan"
)

// Rewrite applies the deterministic logical rewrites to a fixpoint (bounded):
// filter merging, predicate pushdown through projects, joins, and unions,
// followed by plan normalization. Both the workload-analysis pass and query
// compilation apply exactly this pipeline, so signatures computed on either
// side agree.
func Rewrite(root plan.Node) plan.Node {
	n := plan.NormalizeNode(root)
	for i := 0; i < 8; i++ {
		// plan.Rewrite and every rule return their input when nothing
		// changes, so an unchanged root means no rule fired.
		next := pushDownOnce(n)
		if next == n {
			break
		}
		n = plan.NormalizeNode(next)
	}
	return n
}

// pushDownOnce applies one bottom-up pass of pushdown rules.
func pushDownOnce(root plan.Node) plan.Node {
	return plan.Rewrite(root, func(n plan.Node) plan.Node {
		f, ok := n.(*plan.Filter)
		if !ok {
			return n
		}
		switch child := f.Child.(type) {
		case *plan.Filter:
			// Merge adjacent filters into one conjunction.
			return &plan.Filter{
				Pred:  &plan.Binary{Op: "AND", L: child.Pred, R: f.Pred},
				Child: child.Child,
			}
		case *plan.Project:
			return pushThroughProject(f, child)
		case *plan.Join:
			return pushThroughJoin(f, child)
		case *plan.Union:
			// Both branches share the predicate: expressions are never
			// written after binding.
			return &plan.Union{
				L: &plan.Filter{Pred: f.Pred, Child: child.L},
				R: &plan.Filter{Pred: f.Pred, Child: child.R},
			}
		default:
			return n
		}
	})
}

// pushThroughProject moves a filter below a projection when every column the
// predicate references is a simple passthrough (ColRef) in the projection.
// Predicates over computed columns stay above.
func pushThroughProject(f *plan.Filter, p *plan.Project) plan.Node {
	if !passesThrough(f.Pred, p.Exprs) {
		return f // references a computed column; cannot push
	}
	pushed := plan.MapColumns(f.Pred, func(i int) int { return p.Exprs[i].(*plan.ColRef).Index })
	cp := *p
	cp.Child = &plan.Filter{Pred: pushed, Child: p.Child}
	return &cp
}

// passesThrough reports whether every column e references is one exprs
// passes through as it is (a ColRef).
func passesThrough(e plan.Expr, exprs []plan.Expr) bool {
	switch x := e.(type) {
	case *plan.ColRef:
		if x.Index < 0 || x.Index >= len(exprs) {
			return false
		}
		_, ok := exprs[x.Index].(*plan.ColRef)
		return ok
	case *plan.Binary:
		return passesThrough(x.L, exprs) && passesThrough(x.R, exprs)
	case *plan.Unary:
		return passesThrough(x.E, exprs)
	case *plan.Call:
		return !slices.ContainsFunc(x.Args, func(a plan.Expr) bool { return !passesThrough(a, exprs) })
	}
	return true
}

// pushThroughJoin splits the predicate into conjuncts and pushes each side-
// local conjunct into the corresponding join input.
func pushThroughJoin(f *plan.Filter, j *plan.Join) plan.Node {
	leftWidth := len(j.L.Schema())
	var leftPreds, rightPreds, keep []plan.Expr
	for _, c := range conjuncts(f.Pred) {
		switch plan.JoinSides(c, leftWidth) {
		case 1:
			leftPreds = append(leftPreds, c)
		case 2:
			rightPreds = append(rightPreds, plan.ShiftColumns(c, leftWidth))
		default:
			// Constants (side 0) and mixed predicates stay above the join.
			keep = append(keep, c)
		}
	}
	if len(leftPreds) == 0 && len(rightPreds) == 0 {
		return f
	}
	cp := *j
	if len(leftPreds) > 0 {
		cp.L = &plan.Filter{Pred: conjoin(leftPreds), Child: j.L}
	}
	if len(rightPreds) > 0 {
		cp.R = &plan.Filter{Pred: conjoin(rightPreds), Child: j.R}
	}
	if len(keep) > 0 {
		return &plan.Filter{Pred: conjoin(keep), Child: &cp}
	}
	return &cp
}

func conjuncts(e plan.Expr) []plan.Expr {
	if b, ok := e.(*plan.Binary); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []plan.Expr{e}
}

func conjoin(es []plan.Expr) plan.Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = &plan.Binary{Op: "AND", L: out, R: e}
	}
	return out
}

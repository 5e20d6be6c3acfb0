package plan

import (
	"sort"
	"strings"

	"cloudviews/internal/data"
)

// NormalizeExpr canonicalizes an expression tree without changing its
// semantics: constants fold, AND/OR chains flatten and sort, commutative
// operands order canonically, double negation drops. Signatures are computed
// over normalized plans, so this pass determines how much syntactic variation
// still matches for reuse (the paper: "same logical query subexpressions,
// with some normalization").
func NormalizeExpr(e Expr) Expr {
	switch x := e.(type) {
	case *Binary:
		l := NormalizeExpr(x.L)
		r := NormalizeExpr(x.R)

		switch x.Op {
		case "AND", "OR":
			terms := flattenBool(x.Op, l)
			terms = append(terms, flattenBool(x.Op, r)...)
			// Fold constant terms.
			var kept []Expr
			for _, t := range terms {
				if c, ok := t.(*Const); ok && c.Val.Kind == data.KindBool {
					if x.Op == "AND" && !c.Val.B {
						return &Const{Val: data.Bool(false)}
					}
					if x.Op == "OR" && c.Val.B {
						return &Const{Val: data.Bool(true)}
					}
					continue // identity element
				}
				kept = append(kept, t)
			}
			if len(kept) == 0 {
				return &Const{Val: data.Bool(x.Op == "AND")}
			}
			sort.Slice(kept, func(i, j int) bool { return kept[i].Canonical() < kept[j].Canonical() })
			out := kept[0]
			for _, t := range kept[1:] {
				out = &Binary{Op: x.Op, L: out, R: t}
			}
			return out

		case "+", "*", "=", "!=":
			// '+' concatenates strings, which is not commutative; keep order.
			stringy := l.Kind() == data.KindString || r.Kind() == data.KindString
			if !(x.Op == "+" && stringy) && l.Canonical() > r.Canonical() {
				l, r = r, l
			}
		case ">":
			return NormalizeExpr(&Binary{Op: "<", L: r, R: l})
		case ">=":
			return NormalizeExpr(&Binary{Op: "<=", L: r, R: l})
		}

		folded := tryFoldBinary(x.Op, l, r)
		if folded != nil {
			return folded
		}
		return &Binary{Op: x.Op, L: l, R: r}

	case *Unary:
		inner := NormalizeExpr(x.E)
		if x.Op == "NOT" {
			if u, ok := inner.(*Unary); ok && u.Op == "NOT" {
				return u.E // double negation
			}
			if c, ok := inner.(*Const); ok && c.Val.Kind == data.KindBool {
				return &Const{Val: data.Bool(!c.Val.B)}
			}
		}
		if x.Op == "-" {
			if c, ok := inner.(*Const); ok {
				switch c.Val.Kind {
				case data.KindInt:
					return &Const{Val: data.Int(-c.Val.I)}
				case data.KindFloat:
					return &Const{Val: data.Float(-c.Val.F)}
				}
			}
		}
		return &Unary{Op: x.Op, E: inner}

	case *Call:
		args := make([]Expr, len(x.Args))
		allConst := true
		for i, a := range x.Args {
			args[i] = NormalizeExpr(a)
			if _, ok := args[i].(*Const); !ok {
				allConst = false
			}
		}
		// Fold deterministic calls over constants.
		if allConst && IsDeterministicFunc(x.Name) && len(args) > 0 {
			vals := make([]data.Value, len(args))
			for i, a := range args {
				vals[i] = a.(*Const).Val
			}
			c := &Call{Name: x.Name, Args: args}
			return &Const{Val: c.Eval(nil, &EvalContext{Rand: data.NewRand(1)})}
		}
		return &Call{Name: x.Name, Args: args}

	default:
		return e
	}
}

func flattenBool(op string, e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == op {
		return append(flattenBool(op, b.L), flattenBool(op, b.R)...)
	}
	return []Expr{e}
}

// tryFoldBinary folds arithmetic/comparison over two constants; returns nil
// when not foldable.
func tryFoldBinary(op string, l, r Expr) Expr {
	lc, lok := l.(*Const)
	rc, rok := r.(*Const)
	if !lok || !rok {
		return nil
	}
	b := &Binary{Op: op, L: lc, R: rc}
	return &Const{Val: b.Eval(nil, nil)}
}

// NormalizeNode canonicalizes all expressions in a plan tree, bottom-up, and
// orders join key pairs canonically. Sort keys are signed as written. It
// returns a new tree; the input is not mutated.
func NormalizeNode(n Node) Node {
	return Rewrite(n, func(m Node) Node {
		es := Exprs(m, nil)
		if _, isSort := m.(*Sort); isSort || len(es) == 0 {
			return m
		}
		for i, e := range es {
			es[i] = NormalizeExpr(e)
		}
		m = WithExprs(m, es)
		if j, isJoin := m.(*Join); isJoin {
			type pair struct {
				l, r Expr
				key  string
			}
			pairs := make([]pair, len(j.LeftKeys))
			for i, l := range j.LeftKeys {
				pairs[i] = pair{l: l, r: j.RightKeys[i], key: l.Canonical() + "=" + j.RightKeys[i].Canonical()}
			}
			sort.Slice(pairs, func(a, b int) bool { return pairs[a].key < pairs[b].key })
			for i, p := range pairs {
				j.LeftKeys[i], j.RightKeys[i] = p.l, p.r
			}
		}
		return m
	})
}

// Ordering and parameter values. Normalization orders conjuncts, commutative
// operands and join-key pairs by Canonical(), which embeds every parameter's
// VALUE, and yet picks the same order under every valuation of one script's
// parameters — which is what lets optimizer.Derive rebind values in place
// without sorting again. Two renderings being compared run equal up to their
// first differing byte. A Param renders "param:<name>=<value>" and everything
// else starts "lit:", "col:", "(" or an upper-case function name, so where one
// side opens a Param the other differs at that byte or opens a Param too; then
// either the names differ — inside the fixed text, '=' not being an identifier
// byte — or one name binds one value and the sides stay equal across it. The
// first difference never falls inside a value, and nothing folds a Param.
// This needs each side to be where it seems to be in its own rendering: the
// one text that can hold arbitrary bytes is a string literal, and one holding
// "param:" can pose as a Param and line a real value up against literal text.

// ParamOrderHazard reports whether e holds such a literal; a template that
// does is never shared.
func ParamOrderHazard(e Expr) bool {
	hazard := false
	e.Walk(func(x Expr) {
		if c, ok := x.(*Const); ok && c.Val.Kind == data.KindString && strings.Contains(c.Val.S, "param:") {
			hazard = true
		}
	})
	return hazard
}

package plan

import (
	"bytes"
	"slices"
	"strings"

	"cloudviews/internal/data"
)

// NormalizeExpr canonicalizes an expression tree without changing its
// semantics: constants fold, AND/OR chains flatten and sort, commutative
// operands order canonically, double negation drops. Signatures are computed
// over normalized plans, so this pass determines how much syntactic variation
// still matches for reuse (the paper: "same logical query subexpressions,
// with some normalization"). A subtree normalization leaves as it is comes
// back as it went in, shared: expressions are never written after binding.
func NormalizeExpr(e Expr) Expr {
	switch x := e.(type) {
	case *Binary:
		l := NormalizeExpr(x.L)
		r := NormalizeExpr(x.R)

		switch x.Op {
		case "AND", "OR":
			var buf [8]Expr
			terms := appendTerms(appendTerms(buf[:0], x.Op, l), x.Op, r)
			// Fold constant terms.
			kept := terms[:0]
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
			slices.SortFunc(kept, compareCanonical)
			if isChain(x, kept) {
				return x
			}
			out := kept[0]
			for _, t := range kept[1:] {
				out = &Binary{Op: x.Op, L: out, R: t}
			}
			return out

		case "+", "*", "=", "!=":
			// '+' concatenates strings, which is not commutative; keep order.
			stringy := l.Kind() == data.KindString || r.Kind() == data.KindString
			if !(x.Op == "+" && stringy) && compareCanonical(l, r) > 0 {
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
		if l == x.L && r == x.R {
			return x
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
		if inner == x.E {
			return x
		}
		return &Unary{Op: x.Op, E: inner}

	case *Call:
		args := x.Args // copied at the first argument that changes
		allConst := true
		for i, a := range x.Args {
			if na := NormalizeExpr(a); na != a {
				if &args[0] == &x.Args[0] {
					args = slices.Clone(x.Args)
				}
				args[i] = na
			}
			if _, ok := args[i].(*Const); !ok {
				allConst = false
			}
		}
		// Fold deterministic calls over constants.
		if allConst && IsDeterministicFunc(x.Name) && len(args) > 0 {
			c := &Call{Name: x.Name, Args: args}
			return &Const{Val: c.Eval(nil, &EvalContext{Rand: data.NewRand(1)})}
		}
		if len(args) == 0 || &args[0] == &x.Args[0] {
			return x
		}
		return &Call{Name: x.Name, Args: args}

	default:
		return e
	}
}

// isChain reports whether x is already the left-deep chain of terms, in
// order, that NormalizeExpr builds for its operator.
func isChain(x *Binary, terms []Expr) bool {
	var e Expr = x
	for i := len(terms) - 1; i > 0; i-- {
		b, ok := e.(*Binary)
		if !ok || b.Op != x.Op || b.R != terms[i] {
			return false
		}
		e = b.L
	}
	return e == terms[0]
}

// appendTerms appends the operands of e's chain of op (AND or OR), left to
// right, to dst.
func appendTerms(dst []Expr, op string, e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == op {
		return appendTerms(appendTerms(dst, op, b.L), op, b.R)
	}
	return append(dst, e)
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
// orders join key pairs canonically. Sort keys are signed as written. The
// input is not mutated: a node normalization changes is copied, with its
// ancestors, and the rest of the tree is shared.
func NormalizeNode(n Node) Node {
	return Rewrite(n, func(m Node) Node {
		if _, isSort := m.(*Sort); isSort {
			return m
		}
		var buf [8]Expr
		es := Exprs(m, buf[:0])
		j, isJoin := m.(*Join)
		changed := isJoin && len(j.LeftKeys) > 1 // its pairs may need ordering
		for i, e := range es {
			es[i] = NormalizeExpr(e)
			changed = changed || es[i] != e
		}
		if !changed {
			return m
		}
		m = WithExprs(m, append([]Expr(nil), es...))
		if j, isJoin := m.(*Join); isJoin {
			sortKeyPairs(j)
		}
		return m
	})
}

// sortKeyPairs orders j's key pairs by their strict renderings, "left=right",
// compared in stack buffers. It writes j's key slices.
func sortKeyPairs(j *Join) {
	var buf [8][2]Expr
	pairs := buf[:0]
	for i, l := range j.LeftKeys {
		pairs = append(pairs, [2]Expr{l, j.RightKeys[i]})
	}
	slices.SortFunc(pairs, func(a, b [2]Expr) int {
		var ba, bb [256]byte
		return bytes.Compare(appendPair(ba[:0], a), appendPair(bb[:0], b))
	})
	for i, p := range pairs {
		j.LeftKeys[i], j.RightKeys[i] = p[0], p[1]
	}
}

func appendPair(dst []byte, p [2]Expr) []byte {
	return AppendCanonical(append(AppendCanonical(dst, p[0], false), '='), p[1], false)
}

// Ordering and parameter values. Normalization orders conjuncts, commutative
// operands and join-key pairs by their strict renderings, which embed every
// parameter's VALUE, and yet picks the same order under every valuation of one
// script's parameters — which is what lets optimizer.Derive rebind values in
// place without sorting again. Two renderings being compared run equal up to
// their first differing byte. A Param renders "param:<name>=<value>" and
// everything else starts "lit:", "col:", "(" or an upper-case function name,
// so where one side opens a Param the other differs at that byte or opens a
// Param too; then either the names differ — inside the fixed text, '=' not
// being an identifier byte — or one name binds one value and the sides stay
// equal across it. The first difference never falls inside a value, and
// nothing folds a Param.
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

package plan

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file keeps the string renderers AppendCanonical and AppendAttrs
// replaced, each level building a fresh string from its children's, as the
// reference the one renderer must match byte for byte.

// RefCanonical and RefAttrs are the reference renderers, for the external
// tests.
var RefCanonical, RefAttrs = refCanonical, refAttrs

func refCanonical(e Expr, recurring bool) string {
	switch x := e.(type) {
	case *ColRef:
		return "col:" + strings.ToLower(x.Name) + "#" + strconv.Itoa(x.Index)
	case *Const:
		return "lit:" + x.Val.Kind.String() + ":" + x.Val.String()
	case *Param:
		if recurring {
			return "param:" + x.Name
		}
		return "param:" + x.Name + "=" + x.Val.String()
	case *Binary:
		return "(" + refCanonical(x.L, recurring) + " " + x.Op + " " + refCanonical(x.R, recurring) + ")"
	case *Unary:
		return "(" + x.Op + " " + refCanonical(x.E, recurring) + ")"
	case *Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = refCanonical(a, recurring)
		}
		return x.Name + "(" + strings.Join(args, ",") + ")"
	}
	panic(fmt.Sprintf("refCanonical: %T", e))
}

func refAttrs(n Node, recurring bool) string {
	canon := func(e Expr) string { return refCanonical(e, recurring) }
	switch x := n.(type) {
	case *Sort:
		parts := make([]string, len(x.Keys))
		for i, k := range x.Keys {
			ks := canon(k)
			if x.Desc[i] {
				ks += " desc"
			}
			parts[i] = ks
		}
		return "keys=[" + strings.Join(parts, ";") + "]"
	case *Scan:
		if recurring {
			return "ds=" + x.Dataset
		}
		return "ds=" + x.Dataset + ",guid=" + string(x.GUID)
	case *Filter:
		return "pred=" + canon(x.Pred)
	case *Project:
		parts := make([]string, len(x.Exprs))
		for i, e := range x.Exprs {
			parts[i] = strings.ToLower(x.Names[i]) + "<-" + canon(e)
		}
		return "exprs=[" + strings.Join(parts, ";") + "]"
	case *Join:
		pairs := make([]string, len(x.LeftKeys))
		for i := range x.LeftKeys {
			pairs[i] = canon(x.LeftKeys[i]) + "=" + canon(x.RightKeys[i])
		}
		sort.Strings(pairs)
		s := "keys=[" + strings.Join(pairs, ";") + "]"
		if x.Residual != nil {
			s += ",residual=" + canon(x.Residual)
		}
		return s
	case *Aggregate:
		groups := make([]string, len(x.GroupBy))
		for i, g := range x.GroupBy {
			groups[i] = canon(g)
		}
		aggs := make([]string, len(x.Aggs))
		for i, s := range x.Aggs {
			arg := "*"
			if s.Arg != nil {
				arg = canon(s.Arg)
			}
			aggs[i] = s.Kind.String() + "(" + arg + ")->" + strings.ToLower(s.Name)
		}
		return "groupby=[" + strings.Join(groups, ";") + "],aggs=[" + strings.Join(aggs, ";") + "]"
	case *Union, *Spool:
		return ""
	case *UDO:
		deps := append([]string(nil), x.Depends...)
		sort.Strings(deps)
		return fmt.Sprintf("udo=%s,deps=[%s],nondet=%t", x.Name, strings.Join(deps, ";"), x.Nondet)
	case *Sample:
		return fmt.Sprintf("pct=%g", x.Percent)
	case *Output:
		if recurring {
			return ""
		}
		return "target=" + x.Target
	case *ViewScan:
		return "view=" + x.StrictSig
	}
	panic(fmt.Sprintf("refAttrs: %T", n))
}

// AppendLower and EqualLower expose the case folding to the external tests.
var AppendLower, EqualLower = appendLower, equalLower

// WalkExpr visits e, then its operands depth-first, for the external tests.
func WalkExpr(e Expr, fn func(Expr)) {
	fn(e)
	switch x := e.(type) {
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *Unary:
		WalkExpr(x.E, fn)
	case *Call:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	}
}

// ColumnsUsed returns the set of input column indexes e references: with
// RemapColumns, the reference JoinSides and ShiftColumns are checked against.
func ColumnsUsed(e Expr) map[int]bool {
	out := make(map[int]bool)
	WalkExpr(e, func(x Expr) {
		if c, ok := x.(*ColRef); ok {
			out[c.Index] = true
		}
	})
	return out
}

// RemapColumns returns a deep copy of e with every ColRef index rewritten
// through mapping (old index → new index); indexes absent from it are kept.
func RemapColumns(e Expr, mapping map[int]int) Expr {
	return MapColumns(e, func(i int) int {
		if ni, ok := mapping[i]; ok {
			return ni
		}
		return i
	})
}

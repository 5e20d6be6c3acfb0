package plan_test

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"cloudviews/internal/data"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
)

func col(i int, name string) plan.Expr {
	return &plan.ColRef{Index: i, Name: name, Typ: data.KindInt}
}

func lit(v int64) plan.Expr { return &plan.Const{Val: data.Int(v)} }

func bin(op string, l, r plan.Expr) plan.Expr { return &plan.Binary{Op: op, L: l, R: r} }

func TestNormalizeCommutativeOrder(t *testing.T) {
	a := bin("=", col(0, "a"), col(1, "b"))
	b := bin("=", col(1, "b"), col(0, "a"))
	if canonical(t, plan.NormalizeExpr(a)) != canonical(t, plan.NormalizeExpr(b)) {
		t.Error("a=b and b=a must normalize identically")
	}
}

func TestNormalizeAndOrderAndFlatten(t *testing.T) {
	p1 := bin("AND", bin("AND", col(0, "a"), col(1, "b")), col(2, "c"))
	p2 := bin("AND", col(2, "c"), bin("AND", col(1, "b"), col(0, "a")))
	if canonical(t, plan.NormalizeExpr(p1)) != canonical(t, plan.NormalizeExpr(p2)) {
		t.Error("AND chains must normalize to canonical order")
	}
}

func TestNormalizeComparisonFlip(t *testing.T) {
	gt := bin(">", col(0, "a"), lit(5))
	lt := bin("<", lit(5), col(0, "a"))
	if canonical(t, plan.NormalizeExpr(gt)) != canonical(t, plan.NormalizeExpr(lt)) {
		t.Errorf("a>5 and 5<a must match: %s vs %s",
			canonical(t, plan.NormalizeExpr(gt)), canonical(t, plan.NormalizeExpr(lt)))
	}
}

func TestNormalizeConstantFolding(t *testing.T) {
	e := bin("+", lit(2), lit(3))
	n := plan.NormalizeExpr(e)
	c, ok := n.(*plan.Const)
	if !ok || c.Val.I != 5 {
		t.Errorf("2+3 should fold to 5, got %s", canonical(t, n))
	}
}

func TestNormalizeBoolShortcuts(t *testing.T) {
	f := &plan.Const{Val: data.Bool(false)}
	tr := &plan.Const{Val: data.Bool(true)}
	e := bin("AND", col(0, "a"), f)
	if n := plan.NormalizeExpr(e); canonical(t, n) != canonical(t, f) {
		t.Errorf("x AND false should fold to false, got %s", canonical(t, n))
	}
	e2 := bin("OR", col(0, "a"), tr)
	if n := plan.NormalizeExpr(e2); canonical(t, n) != canonical(t, tr) {
		t.Errorf("x OR true should fold to true, got %s", canonical(t, n))
	}
	e3 := bin("AND", col(0, "a"), tr)
	if n := plan.NormalizeExpr(e3); canonical(t, n) != canonical(t, col(0, "a")) {
		t.Errorf("x AND true should fold to x, got %s", canonical(t, n))
	}
}

func TestNormalizeDoubleNegation(t *testing.T) {
	e := &plan.Unary{Op: "NOT", E: &plan.Unary{Op: "NOT", E: col(0, "a")}}
	if n := plan.NormalizeExpr(e); canonical(t, n) != canonical(t, col(0, "a")) {
		t.Errorf("NOT NOT x should fold, got %s", canonical(t, n))
	}
}

func TestNormalizeStringConcatNotReordered(t *testing.T) {
	a := &plan.Const{Val: data.String_("a")}
	b := &plan.Const{Val: data.String_("b")}
	n := plan.NormalizeExpr(bin("+", b, a))
	c, ok := n.(*plan.Const)
	if !ok || c.Val.S != "ba" {
		t.Errorf("string concat must preserve order, got %s", canonical(t, n))
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	exprs := []plan.Expr{
		bin("AND", bin(">", col(0, "a"), lit(1)), bin("=", col(1, "b"), col(2, "c"))),
		bin("OR", bin("<=", lit(3), col(0, "a")), &plan.Unary{Op: "NOT", E: col(1, "b")}),
		bin("*", bin("+", col(0, "a"), lit(0)), lit(2)),
	}
	for _, e := range exprs {
		once := plan.NormalizeExpr(e)
		twice := plan.NormalizeExpr(once)
		if canonical(t, once) != canonical(t, twice) {
			t.Errorf("not idempotent: %s -> %s", canonical(t, once), canonical(t, twice))
		}
	}
}

// Property: normalization preserves evaluation on random rows for a family of
// generated predicates.
func TestNormalizePreservesSemantics(t *testing.T) {
	f := func(av, bv int64, opPick uint8, flip bool) bool {
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		op := ops[int(opPick)%len(ops)]
		var e plan.Expr = bin(op, col(0, "a"), col(1, "b"))
		if flip {
			e = bin("AND", e, bin("=", lit(1), lit(1)))
		}
		row := data.Row{data.Int(av), data.Int(bv)}
		before := e.Eval(row, nil)
		after := plan.NormalizeExpr(e).Eval(row, nil)
		return before.Equal(after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNormalizeNodeSharesWhatItLeaves: normalizing a normalized plan changes
// nothing, so it hands back the same tree and allocates nothing — expressions
// and nodes normalization leaves as they are come back shared, not copied.
// Over the generator's first three days, which hold no join with more than
// one key pair (such a join is copied to order its pairs).
func TestNormalizeNodeSharesWhatItLeaves(t *testing.T) {
	var allocs float64
	roots := generatorRoots(t, 3)
	for _, root := range roots {
		norm := plan.NormalizeNode(root)
		if again := plan.NormalizeNode(norm); again != norm {
			t.Fatalf("normalizing a normalized plan copied it:\n%s", plan.Format(norm))
		}
		allocs += testing.AllocsPerRun(2, func() { plan.NormalizeNode(norm) })
	}
	t.Logf("%.3f allocations per pass over %d normalized plans", allocs/float64(len(roots)), len(roots))
	if allocs != 0 {
		t.Errorf("normalizing normalized plans allocated %.0f times", allocs)
	}
}

func TestNormalizeNodeJoinKeyOrder(t *testing.T) {
	mk := func(swapped bool) plan.Node {
		l := &plan.Scan{Dataset: "L", Out: data.Schema{{Name: "a", Kind: data.KindInt}, {Name: "b", Kind: data.KindInt}}}
		r := &plan.Scan{Dataset: "R", Out: data.Schema{{Name: "x", Kind: data.KindInt}, {Name: "y", Kind: data.KindInt}}}
		j := &plan.Join{L: l, R: r}
		if swapped {
			j.LeftKeys = []plan.Expr{col(1, "b"), col(0, "a")}
			j.RightKeys = []plan.Expr{col(1, "y"), col(0, "x")}
		} else {
			j.LeftKeys = []plan.Expr{col(0, "a"), col(1, "b")}
			j.RightKeys = []plan.Expr{col(0, "x"), col(1, "y")}
		}
		return j
	}
	n1 := plan.NormalizeNode(mk(false))
	n2 := plan.NormalizeNode(mk(true))
	if attrs(t, n1, false) != attrs(t, n2, false) {
		t.Errorf("join key order should canonicalize:\n%s\n%s", attrs(t, n1, false), attrs(t, n2, false))
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"", "%", true},
		{"abc", "", false},
		{"a%b", "a%b", true},
	}
	for _, c := range cases {
		e := bin("LIKE", &plan.Const{Val: data.String_(c.s)}, &plan.Const{Val: data.String_(c.p)})
		got := e.Eval(nil, nil)
		if got.B != c.want {
			t.Errorf("LIKE(%q,%q) = %v, want %v", c.s, c.p, got.B, c.want)
		}
	}
}

func TestRemapColumns(t *testing.T) {
	e := bin("+", col(2, "a"), col(5, "b"))
	m := plan.RemapColumns(e, map[int]int{2: 0, 5: 1})
	row := data.Row{data.Int(10), data.Int(20)}
	if got := m.Eval(row, nil); got.I != 30 {
		t.Errorf("remapped eval = %v, want 30", got)
	}
	// Original untouched.
	longRow := data.Row{data.Int(0), data.Int(0), data.Int(1), data.Int(0), data.Int(0), data.Int(2)}
	if got := e.Eval(longRow, nil); got.I != 3 {
		t.Errorf("original mutated: %v", got)
	}
}

func TestHasNondeterminism(t *testing.T) {
	det := &plan.Call{Name: "LOWER", Args: []plan.Expr{col(0, "a")}}
	nondet := &plan.Call{Name: "NOW"}
	if plan.HasNondeterminism(det) {
		t.Error("LOWER is deterministic")
	}
	if !plan.HasNondeterminism(nondet) {
		t.Error("NOW is non-deterministic")
	}
	nested := bin("AND", col(0, "a"), &plan.Call{Name: "RANDOM"})
	if !plan.HasNondeterminism(nested) {
		t.Error("nested RANDOM must be detected")
	}
	if !plan.HasNondeterminism(&plan.Unary{Op: "NOT", E: nested}) {
		t.Error("RANDOM under NOT must be detected")
	}
	if !plan.HasNondeterminism(&plan.Call{Name: "LOWER", Args: []plan.Expr{nondet}}) {
		t.Error("NOW as a deterministic call's argument must be detected")
	}
}

// TestHasNondeterminismAllocatesNothing: every cold signing asks it of every
// expression, so it recurses without a closure.
func TestHasNondeterminismAllocatesNothing(t *testing.T) {
	exprs := []plan.Expr{
		bin("AND", bin(">", col(0, "a"), &plan.Param{Name: "@p"}), &plan.Unary{Op: "NOT", E: &plan.Call{Name: "LOWER", Args: []plan.Expr{col(1, "b")}}}),
		bin("AND", col(0, "a"), &plan.Call{Name: "LOWER", Args: []plan.Expr{&plan.Call{Name: "RANDOM"}}}),
	}
	for _, e := range exprs {
		if allocs := testing.AllocsPerRun(100, func() { plan.HasNondeterminism(e) }); allocs != 0 {
			t.Errorf("%s: %.0f allocs, want 0", canonical(t, e), allocs)
		}
	}
}

// rebindParams returns a copy of e with every Param bound to its value in
// vals, as optimizer.Derive rebinds a template's.
func rebindParams(e plan.Expr, vals map[string]data.Value) plan.Expr {
	e = plan.MapColumns(e, func(i int) int { return i }) // a deep copy
	plan.WalkExpr(e, func(x plan.Expr) {
		if p, ok := x.(*plan.Param); ok {
			p.Val = vals[p.Name]
		}
	})
	return e
}

// TestNormalizeOrderIgnoresParamValues is the property optimizer.Derive rests
// on (see "Ordering and parameter values" in normalize.go): the order
// normalization gives conjuncts, commutative operands and join-key pairs does
// not depend on a parameter's value. Seeded random expressions — AND/OR
// chains, = != + * operands, join-key pairs, parameters whose names prefix one
// another, string, time, negative and float values, string literals that mimic
// canonical text — are normalized under two valuations: rebinding the second
// valuation into the first result must give the second result, or the first
// result must be flagged by ParamOrderHazard.
func TestNormalizeOrderIgnoresParamValues(t *testing.T) {
	rng := data.NewRand(22)
	at := fixtures.Epoch
	// Each name has one kind under every valuation, as Derive requires.
	kinds := map[string]data.Kind{
		"p": data.KindInt, "p1": data.KindInt, "p10": data.KindFloat,
		"q": data.KindString, "qs": data.KindString, "t": data.KindTime, "t2": data.KindTime,
	}
	names := []string{"p", "p1", "p10", "q", "qs", "t", "t2"}
	// texts mimic canonical renderings; a parameter's value may be any of
	// them, a literal takes one holding "param:" one time in eight.
	texts := []string{
		"", "a", "z", ")", " AND ", "lit:int:3", "col:a#0", "(col:a#0 = lit:int:3)", "p", "=", "aram:p=1", "param",
		"param:", "param:p=5", "a = param:p=7) zzz", "x param:p1=",
	}
	const benign = 12
	valuation := func() map[string]data.Value {
		v := map[string]data.Value{}
		for _, n := range names {
			switch kinds[n] {
			case data.KindInt:
				v[n] = data.Int(rng.Int63n(2001) - 1000)
			case data.KindFloat:
				v[n] = data.Float((rng.Float64() - 0.5) * 1e3)
			case data.KindString:
				v[n] = data.String_(texts[rng.Intn(len(texts))])
			case data.KindTime:
				v[n] = data.Time(at.Add(time.Duration(rng.Int63n(int64(48*time.Hour))) - 24*time.Hour))
			}
		}
		return v
	}
	// shape is an expression with its parameters unbound; bind gives them a
	// valuation's values.
	var shape func(depth int) plan.Expr
	shape = func(depth int) plan.Expr {
		if depth <= 0 || rng.Intn(4) == 0 {
			switch rng.Intn(5) {
			case 0:
				return &plan.ColRef{Index: rng.Intn(3), Name: []string{"a", "b", "param"}[rng.Intn(3)], Typ: data.KindInt}
			case 1:
				return &plan.Const{Val: data.Int(rng.Int63n(21) - 10)}
			case 2:
				if rng.Intn(8) == 0 {
					return &plan.Const{Val: data.String_(texts[benign+rng.Intn(len(texts)-benign)])}
				}
				return &plan.Const{Val: data.String_(texts[rng.Intn(benign)])}
			default:
				return &plan.Param{Name: names[rng.Intn(len(names))]}
			}
		}
		switch rng.Intn(8) {
		case 0:
			return &plan.Unary{Op: "NOT", E: shape(depth - 1)}
		case 1:
			return &plan.Call{Name: "COALESCE", Args: []plan.Expr{shape(depth - 1), shape(depth - 1)}}
		default:
			ops := []string{"AND", "AND", "OR", "=", "!=", "+", "*", "<", ">"}
			return bin(ops[rng.Intn(len(ops))], shape(depth-1), shape(depth-1))
		}
	}
	holdsParam := func(e plan.Expr) bool {
		found := false
		plan.WalkExpr(e, func(x plan.Expr) {
			if _, ok := x.(*plan.Param); ok {
				found = true
			}
		})
		return found
	}
	schema := data.Schema{{Name: "a", Kind: data.KindInt}, {Name: "b", Kind: data.KindInt}, {Name: "param", Kind: data.KindInt}}
	side := func() plan.Node { return &plan.Scan{Dataset: "D", GUID: "g", Out: schema} }

	// The hazard is real: a literal posing as "'a' = @p" sorts after the real
	// one while @p renders below its "7", and before it above.
	posing := bin("AND",
		bin("=", &plan.Const{Val: data.String_("a")}, &plan.Param{Name: "p"}),
		bin("=", &plan.Const{Val: data.String_("a = param:p=7) zzz")}, &plan.Param{Name: "q"}))

	var checked, flagged, flaggedAndMoved int
	for i := 0; i < 4000; i++ {
		// One filter predicate and three join-key pairs per case.
		pred := shape(4)
		if i == 0 {
			pred = posing
		}
		var lk, rk []plan.Expr
		for k := 0; k < 3; k++ {
			lk, rk = append(lk, shape(2)), append(rk, shape(2))
		}
		v1, v2 := valuation(), valuation()
		if i == 0 {
			v1["p"], v2["p"] = data.Int(5), data.Int(9)
		}
		normalize := func(v map[string]data.Value) (plan.Expr, []plan.Expr, []plan.Expr) {
			bind := func(es []plan.Expr) []plan.Expr {
				out := make([]plan.Expr, len(es))
				for i, e := range es {
					out[i] = rebindParams(e, v)
				}
				return out
			}
			n := plan.NormalizeNode(&plan.Filter{
				Pred:  rebindParams(pred, v),
				Child: &plan.Join{LeftKeys: bind(lk), RightKeys: bind(rk), L: side(), R: side()},
			}).(*plan.Filter)
			j := n.Child.(*plan.Join)
			return n.Pred, j.LeftKeys, j.RightKeys
		}
		pred1, lk1, rk1 := normalize(v1)
		pred2, lk2, rk2 := normalize(v2)
		got := []plan.Expr{rebindParams(pred1, v2)}
		want := []plan.Expr{pred2}
		hazard, params := plan.ParamOrderHazard(pred1), holdsParam(pred1)
		for k := range lk1 {
			got = append(got, rebindParams(lk1[k], v2), rebindParams(rk1[k], v2))
			want = append(want, lk2[k], rk2[k])
			hazard = hazard || plan.ParamOrderHazard(lk1[k]) || plan.ParamOrderHazard(rk1[k])
			params = params || holdsParam(lk1[k]) || holdsParam(rk1[k])
		}
		if !params {
			continue
		}
		moved := ""
		for k := range got {
			if g, w := canonical(t, got[k]), canonical(t, want[k]); g != w {
				moved = fmt.Sprintf("rebound %s\nnormalized under the second valuation %s", g, w)
				break
			}
		}
		switch {
		case hazard:
			flagged++
			if moved != "" {
				flaggedAndMoved++
			}
		case moved != "":
			t.Fatalf("case %d: the order depends on a parameter value and no hazard is flagged:\n%s", i, moved)
		default:
			checked++
		}
	}
	t.Logf("%d cases held, %d flagged as hazards of which %d would have moved", checked, flagged, flaggedAndMoved)
	if checked < 2000 || flagged == 0 || flaggedAndMoved == 0 {
		t.Errorf("%d cases held, %d flagged, %d of them moved: the generator does not cover both sides", checked, flagged, flaggedAndMoved)
	}
}

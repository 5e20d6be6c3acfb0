package plan_test

import (
	"strings"
	"testing"

	"cloudviews/internal/catalog"
	"cloudviews/internal/plan"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/workload"
)

// canonical is e's strict rendering, as signatures hash it. Every rendering a
// test reads goes through here, checked against the reference renderer in
// both forms, so each test case is also a case of the renderer's.
func canonical(t testing.TB, e plan.Expr) string {
	t.Helper()
	checkRendering(t, e)
	return string(plan.AppendCanonical(nil, e, false))
}

// recurring is e's recurring rendering, checked as canonical checks.
func recurring(t testing.TB, e plan.Expr) string {
	t.Helper()
	checkRendering(t, e)
	return string(plan.AppendCanonical(nil, e, true))
}

// attrs is n's attribute rendering, checked against the reference in both
// forms.
func attrs(t testing.TB, n plan.Node, rec bool) string {
	t.Helper()
	for _, r := range []bool{false, true} {
		if got, want := string(plan.AppendAttrs([]byte("pre"), n, r)), "pre"+plan.RefAttrs(n, r); got != want {
			t.Errorf("%s attributes (recurring %v):\n got %q\nwant %q", n.OpName(), r, got, want)
		}
	}
	return string(plan.AppendAttrs(nil, n, rec))
}

func checkRendering(t testing.TB, e plan.Expr) {
	t.Helper()
	for _, r := range []bool{false, true} {
		if got, want := string(plan.AppendCanonical([]byte("pre"), e, r)), "pre"+plan.RefCanonical(e, r); got != want {
			t.Errorf("rendering (recurring %v):\n got %q\nwant %q", r, got, want)
		}
	}
	if got, want := plan.Canonical(e), plan.RefCanonical(e, false); got != want {
		t.Errorf("Canonical: got %q, want %q", got, want)
	}
}

// generatorRoots binds every job of the workload generator's first days.
func generatorRoots(t *testing.T, days int) []plan.Node {
	t.Helper()
	cat := catalog.New()
	p := workload.DefaultProfile("Render")
	p.RowsPerRawDay = 40
	gen := workload.NewGenerator(cat, p)
	if err := gen.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	var roots []plan.Node
	for day := 1; day <= days; day++ {
		for _, in := range gen.JobsForDay(day) {
			script, err := sqlparser.Parse(in.Script)
			if err != nil {
				t.Fatal(err)
			}
			outs, err := (&plan.Binder{Catalog: cat, Params: in.Params}).BindScript(script)
			if err != nil {
				t.Fatalf("bind %s: %v", in.ID, err)
			}
			for _, o := range outs {
				roots = append(roots, o)
			}
		}
	}
	return roots
}

// TestRendererMatchesReference renders every node and expression of the
// generator's first three days, bound and normalized, strict and recurring,
// and holds each to the string renderers it replaced.
func TestRendererMatchesReference(t *testing.T) {
	var nodes, exprs int
	check := func(root plan.Node) {
		plan.Walk(root, func(n plan.Node) {
			nodes++
			attrs(t, n, false)
			for _, e := range plan.Exprs(n, nil) {
				plan.WalkExpr(e, func(x plan.Expr) {
					exprs++
					checkRendering(t, x)
				})
			}
		})
	}
	for _, root := range generatorRoots(t, 3) {
		check(root)
		check(plan.NormalizeNode(root))
	}
	t.Logf("%d nodes and %d expressions rendered alike", nodes, exprs)
}

// TestAppendLowerIsToLower holds the renderer's and the binder's case folding
// to strings.ToLower, over the bytes the lexer admits in identifiers (Latin-1
// letters arrive as single, invalid UTF-8 bytes) and runes whose folding
// changes their length.
func TestAppendLowerIsToLower(t *testing.T) {
	names := []string{
		"", "a", "Region", "MKT_segment", "\xc9v\xe9nt", "\xe9V\xc9NT", "Ünïcode", "ÜNÏCODE",
		"�", "\xff", "\xed\xa0\x80", "İx", "K", "k", "K", "ǅ", "Σσς",
	}
	for _, a := range names {
		if got, want := plan.AppendLower([]byte("x"), a), "x"+strings.ToLower(a); string(got) != want {
			t.Errorf("lower(%q) = %q, want %q", a, got, want)
		}
		for _, b := range names {
			if got, want := plan.EqualLower(a, b), strings.ToLower(a) == strings.ToLower(b); got != want {
				t.Errorf("equalLower(%q, %q) = %v, want %v", a, b, got, want)
			}
		}
	}
}

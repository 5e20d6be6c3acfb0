package fixtures_test

import (
	"testing"

	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/sqlparser"
)

func TestRetailDeterministic(t *testing.T) {
	a, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		t.Fatal(err)
	}
	b, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Sales", "Customer", "Parts"} {
		va, _ := a.Latest(name)
		vb, _ := b.Latest(name)
		if va.Table.Fingerprint() != vb.Table.Fingerprint() {
			t.Errorf("%s differs between identical seeds", name)
		}
	}
}

func TestRetailSizes(t *testing.T) {
	cfg := fixtures.DefaultRetail()
	cat, err := fixtures.Retail(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]int{"Sales": cfg.Sales, "Customer": cfg.Customers, "Parts": cfg.Parts}
	for name, want := range checks {
		v, err := cat.Latest(name)
		if err != nil {
			t.Fatal(err)
		}
		if v.Table.NumRows() != want {
			t.Errorf("%s rows = %d, want %d", name, v.Table.NumRows(), want)
		}
	}
}

func TestSalesReferentialIntegrity(t *testing.T) {
	cfg := fixtures.DefaultRetail()
	cat, _ := fixtures.Retail(cfg)
	sales, _ := cat.Latest("Sales")
	for _, r := range sales.Table.Rows {
		if cid := r[1].I; cid < 0 || cid >= int64(cfg.Customers) {
			t.Fatalf("dangling CustomerId %d", cid)
		}
		if pid := r[2].I; pid < 0 || pid >= int64(cfg.Parts) {
			t.Fatalf("dangling PartId %d", pid)
		}
		if q := r[4].I; q < 1 || q > 10 {
			t.Fatalf("quantity out of range: %d", q)
		}
	}
}

func TestFigure4QueriesBindAndShare(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	queries := fixtures.Figure4Queries()
	if len(queries) != 3 {
		t.Fatalf("queries = %d", len(queries))
	}
	var joins []string
	for _, src := range queries {
		script, err := sqlparser.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		b := &plan.Binder{Catalog: cat}
		outs, err := b.BindScript(script)
		if err != nil {
			t.Fatalf("bind: %v", err)
		}
		plan.Walk(outs[0], func(n plan.Node) {
			if j, ok := n.(*plan.Join); ok {
				joins = append(joins, string(plan.AppendAttrs(nil, j, false)))
			}
		})
	}
	// The Sales⋈Customer join must appear in all three (the paper's shared
	// subexpression).
	counts := map[string]int{}
	for _, j := range joins {
		counts[j]++
	}
	sharedTriple := false
	for _, c := range counts {
		if c == 3 {
			sharedTriple = true
		}
	}
	if !sharedTriple {
		t.Errorf("no join shared by all three analysts: %v", counts)
	}
}

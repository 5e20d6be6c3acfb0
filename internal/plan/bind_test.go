package plan_test

import (
	"reflect"
	"strings"
	"testing"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/sqlparser"
)

func mustBind(t *testing.T, src string, params map[string]data.Value) plan.Node {
	t.Helper()
	cat, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	b := &plan.Binder{Catalog: cat, Params: params}
	n, err := b.BindQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBindScanSchema(t *testing.T) {
	n := mustBind(t, `SELECT * FROM Customer`, nil)
	scan, ok := n.(*plan.Scan)
	if !ok {
		t.Fatalf("got %T, want *Scan (pure star adds no Project)", n)
	}
	if scan.Dataset != "Customer" || len(scan.Schema()) != 3 {
		t.Errorf("bad scan: %s %v", scan.Dataset, scan.Schema())
	}
	if scan.BaseRows != 200 {
		t.Errorf("BaseRows = %d, want 200", scan.BaseRows)
	}
}

func TestBindFilterProject(t *testing.T) {
	n := mustBind(t, `SELECT Name AS n FROM Customer WHERE MktSegment = 'Asia'`, nil)
	proj, ok := n.(*plan.Project)
	if !ok {
		t.Fatalf("root = %T, want Project", n)
	}
	if proj.Names[0] != "n" {
		t.Errorf("name = %q", proj.Names[0])
	}
	if _, ok := proj.Child.(*plan.Filter); !ok {
		t.Fatalf("child = %T, want Filter", proj.Child)
	}
}

func TestBindJoinEquiKeyExtraction(t *testing.T) {
	n := mustBind(t, `SELECT Price FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id WHERE MktSegment = 'Asia'`, nil)
	var join *plan.Join
	plan.Walk(n, func(m plan.Node) {
		if j, ok := m.(*plan.Join); ok {
			join = j
		}
	})
	if join == nil {
		t.Fatal("no join found")
	}
	if len(join.LeftKeys) != 1 || len(join.RightKeys) != 1 {
		t.Fatalf("keys = %d/%d, want 1/1", len(join.LeftKeys), len(join.RightKeys))
	}
	if join.Residual != nil {
		t.Errorf("unexpected residual %s", canonical(t, join.Residual))
	}
	// Right key must be rebased to right child's local schema (Customer.Id = index 0).
	rk, ok := join.RightKeys[0].(*plan.ColRef)
	if !ok || rk.Index != 0 {
		t.Errorf("right key = %#v, want ColRef index 0", join.RightKeys[0])
	}
}

func TestBindJoinReversedCondition(t *testing.T) {
	// Customer.Id on the LEFT of '=' should still be classified correctly.
	n := mustBind(t, `SELECT Price FROM Sales JOIN Customer ON Customer.Id = Sales.CustomerId`, nil)
	var join *plan.Join
	plan.Walk(n, func(m plan.Node) {
		if j, ok := m.(*plan.Join); ok {
			join = j
		}
	})
	if join == nil || len(join.LeftKeys) != 1 {
		t.Fatal("equi key not extracted from reversed condition")
	}
	lk := join.LeftKeys[0].(*plan.ColRef)
	if lk.Name != "CustomerId" {
		t.Errorf("left key = %s, want CustomerId", lk.Name)
	}
}

func TestBindResidualJoin(t *testing.T) {
	n := mustBind(t, `SELECT Price FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id AND Sales.Quantity > 2`, nil)
	var join *plan.Join
	plan.Walk(n, func(m plan.Node) {
		if j, ok := m.(*plan.Join); ok {
			join = j
		}
	})
	if join == nil || join.Residual == nil {
		t.Fatal("expected residual predicate")
	}
	if len(join.LeftKeys) != 1 {
		t.Errorf("keys = %d", len(join.LeftKeys))
	}
}

func TestBindGroupBy(t *testing.T) {
	n := mustBind(t, `SELECT MktSegment, COUNT(*) AS n, AVG(Price) AS p
		FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id
		GROUP BY MktSegment`, nil)
	var agg *plan.Aggregate
	plan.Walk(n, func(m plan.Node) {
		if a, ok := m.(*plan.Aggregate); ok {
			agg = a
		}
	})
	if agg == nil {
		t.Fatal("no aggregate")
	}
	if len(agg.GroupBy) != 1 || len(agg.Aggs) != 2 {
		t.Fatalf("groups=%d aggs=%d", len(agg.GroupBy), len(agg.Aggs))
	}
	if agg.Aggs[0].Kind != plan.AggCount || agg.Aggs[0].Arg != nil {
		t.Errorf("first agg should be COUNT(*): %+v", agg.Aggs[0])
	}
	schema := n.Schema()
	if schema[0].Name != "MktSegment" || schema[1].Name != "n" || schema[2].Name != "p" {
		t.Errorf("schema = %v", schema)
	}
}

// freshAggSchema computes an Aggregate's output schema from its fields: the
// group columns, then one column per aggregate, typed by its result.
func freshAggSchema(a *plan.Aggregate) data.Schema {
	var out data.Schema
	for i, g := range a.GroupBy {
		out = append(out, data.Column{Name: a.GroupNames[i], Kind: g.Kind()})
	}
	for _, spec := range a.Aggs {
		kind := data.KindNull
		switch {
		case spec.Kind == plan.AggCount:
			kind = data.KindInt
		case spec.Kind == plan.AggAvg:
			kind = data.KindFloat
		case spec.Kind == plan.AggSum:
			kind = data.KindFloat
			if spec.Arg != nil && spec.Arg.Kind() == data.KindInt {
				kind = data.KindInt
			}
		case spec.Arg != nil:
			kind = spec.Arg.Kind()
		}
		out = append(out, data.Column{Name: spec.Name, Kind: kind})
	}
	return out
}

// TestAggregateSchemaIsStored: every Aggregate that binding builds, and every
// one normalization rebuilds, holds its output schema, equal to one computed
// afresh from its fields, and Schema returns it without allocating.
func TestAggregateSchemaIsStored(t *testing.T) {
	rebuilt := 0
	for _, src := range []string{
		`SELECT MktSegment, COUNT(*) AS n, AVG(Price) AS p FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id GROUP BY MktSegment`,
		`SELECT COUNT(*) AS n, MktSegment AS seg FROM Customer GROUP BY MktSegment`,
		`SELECT Quantity % 3, SUM(Quantity) AS q, SUM(Price) AS p, MIN(Name) AS lo, MAX(SoldAt) AS hi FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id GROUP BY Quantity % 3`,
		`SELECT CustomerId, SUM(1 + Quantity) AS q, MAX(2 * Price) AS p FROM Sales WHERE 3 < Quantity GROUP BY CustomerId HAVING q > 4`,
		`SELECT COUNT(*) AS n, SUM(Price) AS s FROM Sales`,
		`SELECT DISTINCT MktSegment FROM Customer`,
		`SELECT n, COUNT(*) AS c FROM (SELECT CustomerId, COUNT(*) AS n FROM Sales GROUP BY CustomerId) AS x GROUP BY n`,
	} {
		bound := mustBind(t, src, nil)
		seen := map[*plan.Aggregate]bool{}
		for _, root := range []plan.Node{bound, plan.NormalizeNode(bound)} {
			aggs := 0
			plan.Walk(root, func(m plan.Node) {
				a, ok := m.(*plan.Aggregate)
				if !ok {
					return
				}
				aggs++
				if root != bound && !seen[a] {
					rebuilt++
				}
				seen[a] = true
				if !reflect.DeepEqual(a.Schema(), freshAggSchema(a)) {
					t.Errorf("%s: stored schema %v, computed afresh %v", src, a.Out, freshAggSchema(a))
				}
				if allocs := testing.AllocsPerRun(100, func() { _ = a.Schema() }); allocs != 0 {
					t.Errorf("%s: Schema allocates %.0f times a call", src, allocs)
				}
			})
			if aggs == 0 {
				t.Fatalf("%s: no aggregate", src)
			}
		}
	}
	if rebuilt == 0 {
		t.Fatal("normalization rebuilt no aggregate")
	}
}

func TestBindSelectOrderReordersAggregate(t *testing.T) {
	n := mustBind(t, `SELECT COUNT(*) AS n, MktSegment FROM Customer GROUP BY MktSegment`, nil)
	schema := n.Schema()
	if schema[0].Name != "n" || schema[1].Name != "MktSegment" {
		t.Errorf("schema = %v; want aggregate first per select order", schema)
	}
	if _, ok := n.(*plan.Project); !ok {
		t.Errorf("expected reordering Project, got %T", n)
	}
}

func TestBindHaving(t *testing.T) {
	n := mustBind(t, `SELECT MktSegment, COUNT(*) AS n FROM Customer GROUP BY MktSegment HAVING n > 10`, nil)
	if _, ok := n.(*plan.Filter); !ok {
		t.Fatalf("root = %T, want Filter (HAVING)", n)
	}
}

func TestBindParams(t *testing.T) {
	params := map[string]data.Value{"seg": data.String_("Asia")}
	n := mustBind(t, `SELECT Name FROM Customer WHERE MktSegment = @seg`, params)
	found := false
	plan.Walk(n, func(m plan.Node) {
		if f, ok := m.(*plan.Filter); ok {
			plan.WalkExpr(f.Pred, func(e plan.Expr) {
				if p, ok := e.(*plan.Param); ok && p.Name == "seg" && p.Val.S == "Asia" {
					found = true
				}
			})
		}
	})
	if !found {
		t.Error("bound param not found in predicate")
	}
}

func TestBindErrors(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	cases := []struct {
		src  string
		want string
	}{
		{`SELECT Nope FROM Customer`, "unknown column"},
		{`SELECT Name FROM NoSuchTable`, "unknown dataset"},
		{`SELECT Name FROM Customer WHERE MktSegment = @missing`, "unbound parameter"},
		{`SELECT PartId FROM Sales JOIN Parts ON Sales.PartId = Parts.PartId`, "ambiguous"},
		{`SELECT Name, COUNT(*) AS n FROM Customer GROUP BY MktSegment`, "neither aggregated nor in GROUP BY"},
		{`SELECT FROBNICATE(Name) FROM Customer`, "unknown function"},
		{`SELECT SUM(Price) / COUNT(*) FROM Sales GROUP BY PartId`, "not supported"},
		{`PROCESS Customer USING "NoSuchUdo"`, "unknown UDO"},
		{`SELECT * FROM Customer UNION ALL SELECT * FROM Sales`, "schema mismatch"},
		{`SELECT *, Name FROM Customer GROUP BY Name`, "cannot be combined"},
	}
	for _, c := range cases {
		q, err := sqlparser.ParseQuery(c.src)
		if err != nil {
			t.Errorf("parse %q: %v", c.src, err)
			continue
		}
		b := &plan.Binder{Catalog: cat}
		if _, err := b.BindQuery(q); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("bind %q: err = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestBindScriptSharedIntermediate(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	script, err := sqlparser.Parse(`
		asia = SELECT * FROM Customer WHERE MktSegment = 'Asia';
		a = SELECT COUNT(*) AS n FROM asia GROUP BY MktSegment;
		b = SELECT Name FROM asia;
		OUTPUT a TO "out/a";
		OUTPUT b TO "out/b";
	`)
	if err != nil {
		t.Fatal(err)
	}
	b := &plan.Binder{Catalog: cat}
	outs, err := b.BindScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("outputs = %d", len(outs))
	}
	// Each reference receives its own deep copy of the intermediate.
	countFilters := func(n plan.Node) int {
		c := 0
		plan.Walk(n, func(m plan.Node) {
			if _, ok := m.(*plan.Filter); ok {
				c++
			}
		})
		return c
	}
	if countFilters(outs[0]) != 1 || countFilters(outs[1]) != 1 {
		t.Error("each output should contain the shared filter subtree")
	}
}

func TestBindUDO(t *testing.T) {
	n := mustBind(t, `PROCESS Customer USING "AddRowTag" DEPENDS "libgeo"`, nil)
	udo, ok := n.(*plan.UDO)
	if !ok {
		t.Fatalf("got %T", n)
	}
	schema := udo.Schema()
	if schema[len(schema)-1].Name != "row_tag" {
		t.Errorf("schema = %v, want trailing row_tag", schema)
	}
}

func TestBindDistinct(t *testing.T) {
	n := mustBind(t, `SELECT DISTINCT MktSegment FROM Customer`, nil)
	agg, ok := n.(*plan.Aggregate)
	if !ok {
		t.Fatalf("got %T, want Aggregate for DISTINCT", n)
	}
	if len(agg.GroupBy) != 1 || len(agg.Aggs) != 0 {
		t.Errorf("groups=%d aggs=%d", len(agg.GroupBy), len(agg.Aggs))
	}
}

func TestBindSubqueryAliasResolution(t *testing.T) {
	n := mustBind(t, `SELECT s.total FROM (SELECT CustomerId, SUM(Quantity) AS total FROM Sales GROUP BY CustomerId) AS s WHERE s.total > 5`, nil)
	if n == nil {
		t.Fatal("nil plan")
	}
	schema := n.Schema()
	if len(schema) != 1 || schema[0].Name != "total" {
		t.Errorf("schema = %v", schema)
	}
}

func TestCloneNodeIndependence(t *testing.T) {
	n := mustBind(t, `SELECT Name FROM Customer WHERE MktSegment = 'Asia'`, nil)
	// A plan after view matching: a view read in place of a subtree, under
	// the job's output.
	reused := &plan.Output{Target: "out/x", Child: &plan.ViewScan{
		StrictSig: "s1", Path: "views/vc1/s1", Out: n.Schema(), ReplacedOp: "Project", Fallback: n,
	}}
	for _, n := range []plan.Node{n, reused} {
		c := plan.CloneNode(n)
		if c == n {
			t.Fatal("clone returned same root pointer")
		}
		if plan.Format(c) != plan.Format(n) {
			t.Error("clone must render identically")
		}
		if !c.Schema().Equal(n.Schema()) {
			t.Errorf("clone's schema %v, want %v", c.Schema(), n.Schema())
		}
	}
}

// TestBindLatin1Identifiers: the lexer admits Latin-1 letters as single
// bytes, which are not UTF-8, and names match as strings.ToLower has them:
// each such byte folds to U+FFFD, so \xc9 and \xe9 (É, é) name one column.
// Matches and error texts are the ones lower-cased copies gave.
func TestBindLatin1Identifiers(t *testing.T) {
	cat := catalog.New()
	for name, cols := range map[string][]string{"T": {"R\xe9gion", "N"}, "U": {"\xc9a", "\xe9A"}} {
		schema := make(data.Schema, len(cols))
		row := make(data.Row, len(cols))
		for i, c := range cols {
			schema[i], row[i] = data.Column{Name: c, Kind: data.KindInt}, data.Int(int64(i))
		}
		if _, err := cat.Define(name, schema); err != nil {
			t.Fatal(err)
		}
		tb := data.NewTable(schema)
		tb.Append(row)
		if _, err := cat.BulkUpdate(name, fixtures.Epoch, tb); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		src, canon, err string
	}{
		{"x = SELECT r\xc9GION FROM T; OUTPUT x TO \"o\";", "col:r�gion#0", ""},
		{"\xc9s = SELECT t.n, t.R\xc9gion FROM T AS t; OUTPUT \xe9S TO \"o\";", "col:r�gion#0", ""},
		{"x = SELECT \xe9x FROM T; OUTPUT x TO \"o\";", "", "binding x: unknown column \"�x\""},
		{"x = SELECT \xc9.R\xe9gion FROM T AS t; OUTPUT x TO \"o\";", "", "binding x: unknown column \"�\".\"r�gion\""},
		{"x = SELECT \xe9a FROM U; OUTPUT x TO \"o\";", "", "binding x: ambiguous column \"�a\""},
	}
	for _, c := range cases {
		script, err := sqlparser.Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		outs, err := (&plan.Binder{Catalog: cat}).BindScript(script)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("%q: err = %v, want %q", c.src, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		p, ok := outs[0].Child.(*plan.Project)
		if !ok {
			t.Fatalf("%q: root input %T, want a Project", c.src, outs[0].Child)
		}
		if got := canonical(t, p.Exprs[len(p.Exprs)-1]); got != c.canon {
			t.Errorf("%q: bound %q, want %q", c.src, got, c.canon)
		}
	}
}

package exec_test

import (
	"testing"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/sqlparser"
)

// emptyWorld builds a catalog with an empty dataset.
func emptyWorld(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	schema := data.Schema{
		{Name: "Id", Kind: data.KindInt},
		{Name: "Name", Kind: data.KindString},
		{Name: "Value", Kind: data.KindFloat},
	}
	if _, err := cat.Define("Empty", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.BulkUpdate("Empty", fixtures.Epoch, data.NewTable(schema)); err != nil {
		t.Fatal(err)
	}
	return cat
}

func runOn(t *testing.T, cat *catalog.Catalog, src string) *exec.RunResult {
	t.Helper()
	q, err := sqlparser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	b := &plan.Binder{Catalog: cat}
	n, err := b.BindQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&exec.Executor{Catalog: cat}).Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEmptyTableThroughAllOperators(t *testing.T) {
	cat := emptyWorld(t)
	cases := []string{
		`SELECT * FROM Empty`,
		`SELECT * FROM Empty WHERE Value > 10`,
		`SELECT Name, Value * 2 AS v FROM Empty`,
		`SELECT Name, COUNT(*) AS n, SUM(Value) AS s FROM Empty GROUP BY Name`,
		`SELECT a.Id FROM Empty AS a JOIN Empty AS b ON a.Id = b.Id`,
		`SELECT * FROM Empty UNION ALL SELECT * FROM Empty`,
		`SELECT * FROM Empty SAMPLE 50 PERCENT`,
		`PROCESS Empty USING "NormalizeStrings"`,
	}
	for _, src := range cases {
		res := runOn(t, cat, src)
		if res.Table.NumRows() != 0 {
			t.Errorf("%s: rows = %d, want 0", src, res.Table.NumRows())
		}
	}
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	// GROUP BY over empty input yields no groups (SQL semantics for grouped
	// aggregates).
	cat := emptyWorld(t)
	res := runOn(t, cat, `SELECT Name, COUNT(*) AS n FROM Empty GROUP BY Name`)
	if res.Table.NumRows() != 0 {
		t.Errorf("grouped aggregate over empty = %d rows", res.Table.NumRows())
	}
}

func TestDivisionByZeroYieldsNull(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	res := runOn(t, cat, `SELECT Quantity / (Quantity - Quantity) AS z FROM Sales WHERE SaleId < 3`)
	for _, r := range res.Table.Rows {
		if !r[0].IsNull() {
			t.Errorf("x/0 = %v, want NULL", r[0])
		}
	}
}

func TestComparisonsWithNullNeverMatch(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	// NULL > 1 is not true; all rows filtered out.
	res := runOn(t, cat, `SELECT SaleId FROM Sales WHERE Quantity / (Quantity - Quantity) > 1`)
	if res.Table.NumRows() != 0 {
		t.Errorf("NULL comparison matched %d rows", res.Table.NumRows())
	}
}

func TestLikeThroughPipeline(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	res := runOn(t, cat, `SELECT Name FROM Customer WHERE Name LIKE 'customer-000%'`)
	if res.Table.NumRows() != 10 {
		t.Errorf("LIKE matched %d rows, want 10 (customer-0000..0009)", res.Table.NumRows())
	}
	res2 := runOn(t, cat, `SELECT Name FROM Customer WHERE Name LIKE 'customer-0_0_'`)
	if res2.Table.NumRows() != 20 {
		t.Errorf("underscore LIKE matched %d rows, want 20 (ids 0x0y for x in {0,1})", res2.Table.NumRows())
	}
}

func TestIsNullThroughPipeline(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	res := runOn(t, cat, `SELECT SaleId FROM Sales WHERE Price IS NOT NULL AND SaleId < 5`)
	if res.Table.NumRows() != 5 {
		t.Errorf("IS NOT NULL dropped rows: %d", res.Table.NumRows())
	}
	res2 := runOn(t, cat, `SELECT SaleId FROM Sales WHERE Price IS NULL`)
	if res2.Table.NumRows() != 0 {
		t.Errorf("IS NULL matched %d rows on non-null column", res2.Table.NumRows())
	}
}

func TestScalarFunctions(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	res := runOn(t, cat, `SELECT UPPER(Name) AS up, LEN(Name) AS l, ROUND(Price) AS r, ABS(0 - Quantity) AS a
		FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id WHERE SaleId < 3`)
	for _, row := range res.Table.Rows {
		if row[0].S != "" && row[0].S[0] != 'C' {
			t.Errorf("UPPER produced %q", row[0].S)
		}
		if row[1].I != int64(len("customer-0000")) {
			t.Errorf("LEN = %d", row[1].I)
		}
		if row[3].I < 0 {
			t.Errorf("ABS negative: %d", row[3].I)
		}
	}
}

func TestHourYearFunctions(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	res := runOn(t, cat, `SELECT YEAR(SoldAt) AS y, MONTH(SoldAt) AS m FROM Sales WHERE SaleId < 3`)
	for _, row := range res.Table.Rows {
		if row[0].I != 2020 || row[1].I != 2 {
			t.Errorf("date parts = %d-%d, want 2020-02", row[0].I, row[1].I)
		}
	}
}

func TestCrossJoinViaResidualOnly(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	// A join with no equi keys at all: pure residual nested loop.
	res := runOn(t, cat, `SELECT p1.PartId FROM (SELECT * FROM Parts WHERE PartId < 3) AS p1
		JOIN (SELECT * FROM Parts WHERE PartId < 4) AS p2 ON p1.PartId < p2.PartId`)
	// pairs (0,1),(0,2),(0,3),(1,2),(1,3),(2,3) = 6
	if res.Table.NumRows() != 6 {
		t.Errorf("residual-only join rows = %d, want 6", res.Table.NumRows())
	}
}

func TestMinMaxOnStrings(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	res := runOn(t, cat, `SELECT MIN(Brand) AS lo, MAX(Brand) AS hi FROM Parts GROUP BY PartType`)
	for _, row := range res.Table.Rows {
		if row[0].S > row[1].S {
			t.Errorf("MIN %q > MAX %q", row[0].S, row[1].S)
		}
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	all := runOn(t, cat, `SELECT CustomerId, COUNT(*) AS n FROM Sales GROUP BY CustomerId`)
	some := runOn(t, cat, `SELECT CustomerId, COUNT(*) AS n FROM Sales GROUP BY CustomerId HAVING n > 50`)
	if some.Table.NumRows() >= all.Table.NumRows() {
		t.Error("HAVING did not filter groups")
	}
	for _, row := range some.Table.Rows {
		if row[1].I <= 50 {
			t.Errorf("HAVING leaked group with n=%d", row[1].I)
		}
	}
}

func TestAvgIgnoresNullArguments(t *testing.T) {
	// AVG over an expression that is NULL for some rows must average only
	// the non-null values.
	cat := catalog.New()
	schema := data.Schema{{Name: "K", Kind: data.KindInt}, {Name: "V", Kind: data.KindInt}}
	_, _ = cat.Define("T", schema)
	tb := data.NewTable(schema)
	// V=0 rows make V/V null; others contribute 1.
	tb.Append(data.Row{data.Int(1), data.Int(0)})
	tb.Append(data.Row{data.Int(1), data.Int(5)})
	tb.Append(data.Row{data.Int(1), data.Int(7)})
	_, _ = cat.BulkUpdate("T", fixtures.Epoch, tb)
	res := runOn(t, cat, `SELECT K, AVG(V / V) AS a, COUNT(*) AS n FROM T GROUP BY K`)
	if res.Table.NumRows() != 1 {
		t.Fatalf("groups = %d", res.Table.NumRows())
	}
	row := res.Table.Rows[0]
	if row[1].F != 1.0 {
		t.Errorf("AVG = %g, want 1.0 (nulls excluded)", row[1].F)
	}
	if row[2].I != 3 {
		t.Errorf("COUNT(*) = %d, want 3 (counts all rows)", row[2].I)
	}
}

func TestOrderBy(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	res := runOn(t, cat, `SELECT SaleId, Price FROM Sales WHERE SaleId < 20 ORDER BY Price DESC, SaleId ASC`)
	if res.Table.NumRows() != 20 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	for i := 1; i < res.Table.NumRows(); i++ {
		prev, cur := res.Table.Rows[i-1], res.Table.Rows[i]
		if prev[1].F < cur[1].F {
			t.Fatalf("not descending by Price at %d: %g < %g", i, prev[1].F, cur[1].F)
		}
	}
}

func TestOrderByAfterAggregate(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	res := runOn(t, cat, `SELECT MktSegment, COUNT(*) AS n FROM Customer GROUP BY MktSegment ORDER BY n DESC`)
	for i := 1; i < res.Table.NumRows(); i++ {
		if res.Table.Rows[i-1][1].I < res.Table.Rows[i][1].I {
			t.Fatal("not sorted by count")
		}
	}
}

// TestOrderByRandomDrawsOnceARow: a sort evaluates each key once per row, in
// row order, so ORDER BY RANDOM() orders the rows by the values a projection
// of RANDOM() draws from the same seed. Evaluated inside the comparator, the
// key drew O(n log n) values and ordered nothing consistently.
func TestOrderByRandomDrawsOnceARow(t *testing.T) {
	cat, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		t.Fatal(err)
	}
	for _, vectorized := range []bool{false, true} {
		run := func(src string) *data.Table {
			res, err := (&exec.Executor{Catalog: cat, Vectorized: vectorized}).Run(bindQuery(t, cat, src))
			if err != nil {
				t.Fatal(err)
			}
			return res.Table
		}
		got := run(`SELECT SaleId, Quantity FROM Sales ORDER BY RANDOM()`)
		want := run(`SELECT SaleId, Quantity, RANDOM() AS k FROM Sales ORDER BY k`)
		if got.NumRows() != want.NumRows() || got.NumRows() < 1000 {
			t.Fatalf("vectorized=%v: %d rows against %d", vectorized, got.NumRows(), want.NumRows())
		}
		differ := 0
		for i, r := range got.Rows {
			if r[0] != want.Rows[i][0] {
				differ++
			}
		}
		if differ != 0 {
			t.Errorf("vectorized=%v: %d of %d positions differ from the order of the drawn keys", vectorized, differ, got.NumRows())
		}
	}
}

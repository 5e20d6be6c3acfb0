package exec_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
)

// vecEquivalenceQueries is the lock-step corpus: every operator the kernels
// implement, plus expressions they must decline (LIKE, Calls, string
// arithmetic on mixed kinds) so the per-operator fallback itself is exercised.
// RANDOM() consumes the per-job PRNG in row order: with the same seed the
// declined filter keeps the same rows as the reference.
var vecEquivalenceQueries = []string{
	`SELECT * FROM Sales WHERE Price > 50`,
	`SELECT * FROM Sales WHERE Price > 50 AND Quantity < 5`,
	`SELECT * FROM Sales WHERE Price * 2 + 1 >= 100 OR Quantity = 3`,
	`SELECT * FROM Sales WHERE NOT (Price <= 50)`,
	`SELECT * FROM Customer WHERE MktSegment = 'Asia'`,
	`SELECT * FROM Customer WHERE Name >= 'customer-0100'`,
	`SELECT * FROM Customer WHERE Name LIKE 'customer-00%'`,
	`SELECT SaleId, Price * Quantity AS revenue FROM Sales`,
	`SELECT SaleId + 1 AS s, Price / Quantity AS unit, SaleId % 7 AS m FROM Sales`,
	`SELECT -Price AS np, -(SaleId) AS ns FROM Sales`,
	`SELECT Name + '!' AS n FROM Customer`,
	`SELECT Quantity, COUNT(*) AS n, SUM(Price) AS s, AVG(Price) AS a, MIN(Price) AS lo, MAX(Price) AS hi FROM Sales GROUP BY Quantity`,
	`SELECT COUNT(*) AS n, SUM(Quantity) AS q FROM Sales`,
	`SELECT CustomerId, SUM(Price / Quantity) AS s FROM Sales GROUP BY CustomerId`,
	`SELECT Name, Price FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id`,
	`SELECT Name, Price FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id WHERE MktSegment = 'Asia'`,
	`SELECT * FROM Sales ORDER BY Price DESC, SaleId`,
	`SELECT * FROM Customer ORDER BY MktSegment, Name DESC`,
	`SELECT SaleId, Quantity FROM Sales ORDER BY SaleId / (Quantity - 3), SaleId`,
	`SELECT * FROM Sales SAMPLE 25 PERCENT`,
	`SELECT SaleId FROM Sales WHERE Price > 90 UNION ALL SELECT SaleId FROM Sales WHERE Price < 10`,
	`SELECT DISTINCT MktSegment FROM Customer`,
	`SELECT MktSegment, COUNT(*) AS n FROM Customer GROUP BY MktSegment HAVING n > 10`,
	`SELECT x FROM (SELECT SaleId AS x FROM Sales WHERE Price > 20) AS sub WHERE x % 2 = 0`,
	`SELECT SaleId, Price * Quantity AS revenue, Discount + 1.0 AS d FROM Sales`,
	`SELECT Name, Price FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id AND Sales.Quantity > 2`,
	`SELECT CustomerId, COUNT(*) AS n, SUM(Price) AS total, AVG(Discount) AS avgd, MIN(Quantity) AS mn, MAX(Quantity) AS mx FROM Sales GROUP BY CustomerId`,
	`SELECT MktSegment, COUNT(*) AS n FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id GROUP BY MktSegment`,
	`SELECT DISTINCT CustomerId FROM Sales`,
	`SELECT CustomerId, SUM(Price*Quantity) AS rev FROM Sales WHERE Discount < 0.3 GROUP BY CustomerId ORDER BY rev DESC`,
	randomFilterQuery,
	// Appending UDOs under an Aggregate and a Project, over a table and over a
	// filter's selection: on the kernels they hand over pairs.
	`SELECT Quantity, COUNT(*) AS n, MAX(row_tag) AS t FROM (PROCESS Sales USING "AddRowTag") AS u GROUP BY Quantity`,
	`SELECT CustomerId, COUNT(*) AS n, MIN(ingest_time) AS t FROM (PROCESS (SELECT * FROM Sales WHERE Price > 20) USING "StampIngestTime") AS u GROUP BY CustomerId`,
	`SELECT SaleId, row_tag % 7 AS m FROM (PROCESS (SELECT * FROM Sales WHERE Quantity < 4) USING "AddRowTag") AS u`,
	`SELECT SaleId, ingest_time FROM (PROCESS Sales USING "StampIngestTime") AS u`,
}

const randomFilterQuery = `SELECT SaleId FROM Sales WHERE RANDOM() < 0.5`

// adversarialQueries run against a hand-built table holding separator bytes,
// extreme numerics, times, bools, and NULL-producing expressions.
var adversarialQueries = []string{
	`SELECT K1, K2, COUNT(*) AS n FROM Adv GROUP BY K1, K2`,
	`SELECT * FROM Adv WHERE Big > 1000000000000`,
	`SELECT * FROM Adv WHERE F != 0.1`,
	`SELECT * FROM Adv ORDER BY F, Big DESC`,
	`SELECT * FROM Adv ORDER BY K1 DESC, K2`,
	`SELECT Big / N AS d, Big % N AS m FROM Adv`,
	`SELECT * FROM Adv WHERE Flag = TRUE`,
	`SELECT a.K1, b.K2 FROM Adv AS a JOIN Adv AS b ON a.K1 = b.K1`,
	`SELECT K1, MIN(F) AS lo, MAX(Big) AS hi FROM Adv GROUP BY K1`,
	`SELECT * FROM Adv WHERE Ts >= Ts`,
	`SELECT Ts, COUNT(*) AS n FROM Adv GROUP BY Ts`,
	`SELECT a.K1, b.K2 FROM Adv AS a JOIN Adv AS b ON a.Ts = b.Ts`,
	`SELECT * FROM Adv SAMPLE 50 PERCENT`,
	`SELECT K1, COUNT(*) AS n, MAX(row_tag) AS t FROM (PROCESS Adv USING "AddRowTag") AS u GROUP BY K1`,
	`SELECT row_tag, Ts FROM (PROCESS (SELECT * FROM Adv WHERE Big > 0) USING "AddRowTag") AS u`,
}

func adversarialCatalog(t *testing.T, cfg fixtures.RetailConfig) *catalog.Catalog {
	t.Helper()
	cat, err := fixtures.Retail(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schema := data.Schema{
		{Name: "K1", Kind: data.KindString},
		{Name: "K2", Kind: data.KindString},
		{Name: "Big", Kind: data.KindInt},
		{Name: "N", Kind: data.KindInt},
		{Name: "F", Kind: data.KindFloat},
		{Name: "Flag", Kind: data.KindBool},
		{Name: "Ts", Kind: data.KindTime},
	}
	if _, err := cat.Define("Adv", schema); err != nil {
		t.Fatal(err)
	}
	tb := data.NewTable(schema)
	ts := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	rows := []data.Row{
		// The historical "%d:%s"+"\x00" key encoding made these two rows
		// collide on (K1, K2): both rendered "3:x\x003:y\x003:z".
		{data.String_("x\x003:y"), data.String_("z"), data.Int(1 << 60), data.Int(3), data.Float(0.1), data.Bool(true), data.Time(ts)},
		{data.String_("x"), data.String_("y\x003:z"), data.Int(-(1 << 60)), data.Int(0), data.Float(-0.1), data.Bool(false), data.Time(ts.Add(time.Hour))},
		// Two instants inside ts's second: a rendering to the second made
		// them, and ts itself, one group and one join key.
		{data.String_("x\x01"), data.String_("\x00"), data.Int(9007199254740993), data.Int(7), data.Float(2.5), data.Bool(true), data.Time(ts.Add(250 * time.Millisecond))},
		{data.String_(""), data.String_(""), data.Int(0), data.Int(1), data.Float(0), data.Bool(false), data.Time(ts.Add(750 * time.Millisecond))},
		{data.String_("x"), data.String_("z"), data.Int(42), data.Int(5), data.Float(0.1), data.Bool(true), data.Time(ts)},
	}
	for _, r := range rows {
		tb.Append(r)
	}
	if _, err := cat.BulkUpdate("Adv", fixtures.Epoch, tb); err != nil {
		t.Fatal(err)
	}
	return cat
}

func bindQuery(t *testing.T, cat *catalog.Catalog, src string) plan.Node {
	t.Helper()
	q, err := sqlparser.ParseQuery(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", src, err)
	}
	n, err := (&plan.Binder{Catalog: cat}).BindQuery(q)
	if err != nil {
		t.Fatalf("%s: bind: %v", src, err)
	}
	return n
}

func valueExactEqual(a, b data.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case data.KindNull:
		return true
	case data.KindInt, data.KindTime:
		return a.I == b.I
	case data.KindFloat:
		// Bit-level comparison distinguishes -0.0 and NaN payloads.
		return a.F == b.F || (a.F != a.F && b.F != b.F)
	case data.KindString:
		return a.S == b.S
	case data.KindBool:
		return a.B == b.B
	}
	return false
}

// requireRunsEqual asserts results AND accounting are identical, ignoring
// only NodeStat.Batches (definitionally 0 on the row path).
func requireRunsEqual(t *testing.T, src string, row, vec *exec.RunResult) {
	t.Helper()
	if row.Table.NumRows() != vec.Table.NumRows() {
		t.Fatalf("%s: rows row=%d vec=%d", src, row.Table.NumRows(), vec.Table.NumRows())
	}
	if !row.Table.Schema.Equal(vec.Table.Schema) {
		t.Fatalf("%s: schema mismatch", src)
	}
	for i := range row.Table.Rows {
		ra, rb := row.Table.Rows[i], vec.Table.Rows[i]
		for j := range ra {
			if !valueExactEqual(ra[j], rb[j]) {
				t.Fatalf("%s: row %d col %d: row-path %v (%v) vs vec %v (%v)",
					src, i, j, ra[j], ra[j].Kind, rb[j], rb[j].Kind)
			}
		}
	}
	if len(row.Stats) != len(vec.Stats) {
		t.Fatalf("%s: stat count row=%d vec=%d", src, len(row.Stats), len(vec.Stats))
	}
	for i := range row.Stats {
		a, b := row.Stats[i], vec.Stats[i]
		if a.Node.OpName() != b.Node.OpName() || a.Algo != b.Algo || a.RowsOut != b.RowsOut ||
			a.BytesOut != b.BytesOut || a.Work != b.Work || a.Read != b.Read {
			t.Fatalf("%s: stat %d mismatch: %+v vs %+v", src, i, a, b)
		}
	}
	if row.TotalWork != vec.TotalWork || row.InputBytes != vec.InputBytes ||
		row.TotalRead != vec.TotalRead || row.SpoolWork != vec.SpoolWork {
		t.Fatalf("%s: accounting mismatch", src)
	}
}

func runBoth(t *testing.T, cat *catalog.Catalog, src string) (*exec.RunResult, *exec.RunResult) {
	t.Helper()
	n := bindQuery(t, cat, src)
	row, err := (&exec.Executor{Catalog: cat}).Run(n)
	if err != nil {
		t.Fatalf("%s: row run: %v", src, err)
	}
	vec, err := (&exec.Executor{Catalog: cat, Vectorized: true}).Run(n)
	if err != nil {
		t.Fatalf("%s: vec run: %v", src, err)
	}
	return row, vec
}

// TestVectorizedRowEquivalence is the one equivalence suite: every corpus
// query produces byte-identical tables and accounting from the kernels and
// from the row-loop reference, on inputs below, at and across the batch size.
func TestVectorizedRowEquivalence(t *testing.T) { requireCorpusEquivalent(t) }

func requireCorpusEquivalent(t *testing.T) {
	for _, sales := range []int{0, 1, 1023, 1024, 1025, 12000} {
		cat := adversarialCatalog(t, fixtures.RetailConfig{Customers: sales/3 + 1, Parts: 50, Sales: sales, Seed: 42})
		for _, src := range append(append([]string{}, vecEquivalenceQueries...), adversarialQueries...) {
			row, vec := runBoth(t, cat, src)
			requireRunsEqual(t, fmt.Sprintf("%d sales: %s", sales, src), row, vec)
		}
	}
}

// opBatches returns the Batches of the run's first operator named op.
func opBatches(t *testing.T, src string, res *exec.RunResult, op string) int64 {
	t.Helper()
	for _, st := range res.Stats {
		if st.Node.OpName() == op {
			return st.Batches
		}
	}
	t.Fatalf("%s: no %s operator in the plan", src, op)
	return 0
}

// TestVectorizedActuallyVectorizes guards the equivalence corpus against
// becoming vacuous: on a 5000-row input each operator the kernels implement
// must report batches, whatever GOMAXPROCS is, on every arm the kernels keep.
// Every arm they decline — and Sort and Sample, which have one loop — must
// report none and still equal the row-loop reference, rows and NodeStats.
func TestVectorizedActuallyVectorizes(t *testing.T) {
	cat := adversarialCatalog(t, fixtures.DefaultRetail())
	mustBatch := []struct{ src, op string }{
		{`SELECT * FROM Sales WHERE Price > 50`, "Filter"},
		{`SELECT * FROM Sales WHERE 50 >= Price AND Quantity <= 3 AND SaleId < 4000`, "Filter"},
		{`SELECT * FROM Customer WHERE MktSegment != 'Asia' AND Id = 7`, "Filter"},
		{`SELECT * FROM Sales WHERE SoldAt = SoldAt AND SaleId % 7 != 3`, "Filter"},
		{`SELECT SaleId, SaleId % 7 AS m, Price < 20 AS cheap FROM Sales`, "Project"},
		{`SELECT Quantity, COUNT(*) AS n, SUM(Price) AS s FROM Sales GROUP BY Quantity`, "Aggregate"},
		{`SELECT Name, Price FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id`, "Join"},
	}
	for _, c := range mustBatch {
		row, vec := runBoth(t, cat, c.src)
		requireRunsEqual(t, c.src, row, vec)
		if opBatches(t, c.src, vec, c.op) == 0 {
			t.Errorf("%s: %s ran on the row loop, Batches = 0", c.src, c.op)
		}
	}
	mustDecline := []struct{ src, op string }{
		{randomFilterQuery, "Filter"}, // nondeterministic
		{`SELECT * FROM Sales WHERE Price > 90 OR Quantity = 3`, "Filter"},
		{`SELECT * FROM Sales WHERE NOT (Price <= 50)`, "Filter"},
		{`SELECT -Price AS np FROM Sales`, "Project"},
		{`SELECT * FROM Adv WHERE Flag = TRUE`, "Filter"},
		{`SELECT * FROM Adv WHERE Flag < TRUE`, "Filter"},
		{`SELECT * FROM Sales WHERE Price = Quantity`, "Filter"},
		{`SELECT * FROM Sales WHERE Discount != 0.1`, "Filter"},
		{`SELECT * FROM Customer WHERE Name >= 'customer-0100'`, "Filter"},
		{`SELECT SaleId + 1 AS s FROM Sales`, "Project"},
		{`SELECT Price - Discount AS d FROM Sales`, "Project"},
		{`SELECT Price * Quantity AS revenue FROM Sales`, "Project"},
		{`SELECT Name + '!' AS n FROM Customer`, "Project"},
		{`SELECT Price / Quantity AS unit FROM Sales`, "Project"},
		{`SELECT Price % 7 AS m FROM Sales`, "Project"},
		{`SELECT * FROM Sales ORDER BY Price DESC, SaleId`, "Sort"},
		{`SELECT * FROM Sales SAMPLE 25 PERCENT`, "Sample"},
	}
	for _, c := range mustDecline {
		row, vec := runBoth(t, cat, c.src)
		requireRunsEqual(t, c.src, row, vec)
		if nb := opBatches(t, c.src, vec, c.op); nb != 0 {
			t.Errorf("%s: %s reported %d batches, want the row loop", c.src, c.op, nb)
		}
	}
	// And the reference must never report batches.
	row, err := (&exec.Executor{Catalog: cat}).Run(bindQuery(t, cat, mustBatch[0].src))
	if err != nil {
		t.Fatal(err)
	}
	if n := totalBatches(row); n != 0 {
		t.Errorf("row path reported %d batches", n)
	}
}

// totalBatches sums the run's NodeStat.Batches, replayed stats included.
func totalBatches(res *exec.RunResult) (n int64) {
	for _, st := range res.Stats {
		n += st.Batches
	}
	return n
}

// TestOrderingsMatchCompare: the four orderings run one less-than loop each,
// and equal Value.Compare's answer where a NaN makes it 0: NaN <= 1 and
// NaN >= 1 hold, NaN < 1 and NaN > 1 do not.
func TestOrderingsMatchCompare(t *testing.T) {
	schema := data.Schema{{Name: "F", Kind: data.KindFloat}, {Name: "I", Kind: data.KindInt}}
	cat := catalog.New()
	if _, err := cat.Define("N", schema); err != nil {
		t.Fatal(err)
	}
	tb := data.NewTable(schema)
	for i, f := range []float64{math.NaN(), 1, 0.5, 2, math.Inf(-1), math.NaN()} {
		tb.Append(data.Row{data.Float(f), data.Int(int64(i))})
	}
	if _, err := cat.BulkUpdate("N", fixtures.Epoch, tb); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src  string
		rows int
	}{
		{`SELECT * FROM N WHERE F < 1`, 2},
		{`SELECT * FROM N WHERE F <= 1`, 5},
		{`SELECT * FROM N WHERE F > 1`, 1},
		{`SELECT * FROM N WHERE F >= 1`, 4},
		{`SELECT * FROM N WHERE I <= F`, 3},
	} {
		row, vec := runBoth(t, cat, c.src)
		requireRunsEqual(t, c.src, row, vec)
		if opBatches(t, c.src, vec, "Filter") == 0 || vec.Table.NumRows() != c.rows {
			t.Errorf("%s: %d rows, %d batches; want %d rows on the kernels", c.src, vec.Table.NumRows(), opBatches(t, c.src, vec, "Filter"), c.rows)
		}
	}
}

// TestLazyColumnExtraction: kernels read only the columns an expression
// references, so a cell they could not represent declines the operator only
// when it sits in a referenced column.
func TestLazyColumnExtraction(t *testing.T) {
	schema := data.Schema{
		{Name: "A", Kind: data.KindInt},
		{Name: "B", Kind: data.KindString},
	}
	cat := catalog.New()
	for _, name := range []string{"NullB", "Short"} {
		if _, err := cat.Define(name, schema); err != nil {
			t.Fatal(err)
		}
		tb := data.NewTable(schema)
		for i := 0; i < 3000; i++ {
			tb.Append(data.Row{data.Int(int64(i % 40)), data.String_(fmt.Sprintf("b%d", i%7))})
		}
		if name == "NullB" {
			tb.Rows[1500][1] = data.Null()
		} else {
			tb.Rows[1500] = tb.Rows[1500][:1]
		}
		if _, err := cat.BulkUpdate(name, fixtures.Epoch, tb); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		src     string
		kernels bool
	}{
		{`SELECT * FROM NullB WHERE A > 30`, true},
		{`SELECT * FROM NullB WHERE B = 'b3'`, false},
		// Row 1500 (A = 20) is filtered out: Table.Append rejects short rows.
		{`SELECT * FROM Short WHERE A > 30`, false},
	}
	for _, c := range cases {
		row, vec := runBoth(t, cat, c.src)
		requireRunsEqual(t, c.src, row, vec)
		if got := opBatches(t, c.src, vec, "Filter") > 0; got != c.kernels {
			t.Errorf("%s: Filter on kernels = %v, want %v", c.src, got, c.kernels)
		}
	}
}

// TestVectorizedLockStepRace runs the batch and row paths concurrently over
// the shared catalog and plans — under -race this proves the vectorized
// kernels don't share mutable state across executors.
func TestVectorizedLockStepRace(t *testing.T) {
	cat := adversarialCatalog(t, fixtures.DefaultRetail())
	queries := append(append([]string{}, vecEquivalenceQueries...), adversarialQueries...)
	plans := make([]plan.Node, len(queries))
	for i, src := range queries {
		plans[i] = bindQuery(t, cat, src)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries))
	for i, src := range queries {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			n := plans[i]
			rowRes, err := (&exec.Executor{Catalog: cat}).Run(n)
			if err != nil {
				errs <- fmt.Errorf("%s: row: %w", src, err)
				return
			}
			vecRes, err := (&exec.Executor{Catalog: cat, Vectorized: true}).Run(n)
			if err != nil {
				errs <- fmt.Errorf("%s: vec: %w", src, err)
				return
			}
			if rowRes.Table.Fingerprint() != vecRes.Table.Fingerprint() {
				errs <- fmt.Errorf("%s: fingerprint mismatch", src)
			}
		}(i, src)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGroupKeyCollisionRegression is the end-to-end satellite regression:
// under the historical separator-joined encoding the first two Adv rows
// produced one group; the length-prefixed encoding must keep them apart. And
// under a rendering of times to the second, the three Adv rows inside one
// second produced one group, although Value.Equal tells them apart.
func TestGroupKeyCollisionRegression(t *testing.T) {
	cat := adversarialCatalog(t, fixtures.DefaultRetail())
	for _, c := range []struct {
		src    string
		counts []int64 // per group, in first-appearance order
	}{
		{`SELECT K1, K2, COUNT(*) AS n FROM Adv GROUP BY K1, K2`, []int64{1, 1, 1, 1, 1}},
		{`SELECT Ts, COUNT(*) AS n FROM Adv GROUP BY Ts`, []int64{2, 1, 1, 1}},
	} {
		for _, vectorized := range []bool{false, true} {
			res, err := (&exec.Executor{Catalog: cat, Vectorized: vectorized}).Run(bindQuery(t, cat, c.src))
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			for _, r := range res.Table.Rows {
				got = append(got, r[len(r)-1].I)
			}
			if !reflect.DeepEqual(got, c.counts) {
				t.Errorf("vectorized=%v: %s: group counts %v, want %v (adversarial keys must not collide)", vectorized, c.src, got, c.counts)
			}
		}
	}
}

// allocCeilingQuery runs scan → UDO → filter → join with a residual →
// aggregate → project, every operator that creates rows.
const allocCeilingQuery = `SELECT seg, n + 1 AS n1, total * 2 AS t2 FROM (
	SELECT MktSegment AS seg, COUNT(*) AS n, SUM(Price) AS total
	FROM (SELECT * FROM (PROCESS Sales USING "StampIngestTime") AS tagged WHERE Price > 20) AS s
	JOIN Customer ON s.CustomerId = Customer.Id AND s.Quantity + Customer.Id > 3
	GROUP BY MktSegment) AS g`

// TestAllocationsScaleWithBatches is the executor's allocation ceiling: rows,
// group states and join keys come from per-batch chunks, so ten times the
// input may cost at most twice the allocations (at the parent commit every
// row was its own allocation and the count grew tenfold). Both the kernels
// and the reference loops are held to it.
func TestAllocationsScaleWithBatches(t *testing.T) {
	for _, vectorized := range []bool{true, false} {
		var allocs [2]float64
		for i, sales := range []int{1200, 12000} {
			cat, err := fixtures.Retail(fixtures.RetailConfig{Customers: sales / 3, Parts: 50, Sales: sales, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			n := bindQuery(t, cat, allocCeilingQuery)
			res, err := (&exec.Executor{Catalog: cat, Vectorized: vectorized}).Run(n)
			if err != nil {
				t.Fatal(err)
			}
			ops := map[string]int64{}
			for _, st := range res.Stats {
				ops[st.Node.OpName()] = st.RowsOut
			}
			for _, op := range []string{"UDO", "Filter", "Join", "Aggregate", "Project"} {
				if ops[op] == 0 {
					t.Fatalf("%d sales: %s produced no rows (stats %v)", sales, op, ops)
				}
			}
			if ops["Join"] >= ops["Filter"] {
				t.Fatalf("%d sales: the residual rejected nothing (%d of %d pairs kept)", sales, ops["Join"], ops["Filter"])
			}
			allocs[i] = testing.AllocsPerRun(5, func() {
				if _, err := (&exec.Executor{Catalog: cat, Vectorized: vectorized}).Run(n); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("vectorized=%v: %.0f allocations at 1,200 rows, %.0f at 12,000", vectorized, allocs[0], allocs[1])
		if allocs[1] > 2*allocs[0] {
			t.Errorf("vectorized=%v: allocations grew %.1f× for 10× the rows (%.0f → %.0f), want at most 2×",
				vectorized, allocs[1]/allocs[0], allocs[0], allocs[1])
		}
	}
}

// intTable defines name as (K INT, V INT) holding rows in a new catalog.
func intTable(t *testing.T, name string, rows [][2]int64) *catalog.Catalog {
	t.Helper()
	schema := data.Schema{{Name: "K", Kind: data.KindInt}, {Name: "V", Kind: data.KindInt}}
	cat := catalog.New()
	if _, err := cat.Define(name, schema); err != nil {
		t.Fatal(err)
	}
	tb := data.NewTable(schema)
	for _, r := range rows {
		tb.Append(data.Row{data.Int(r[0]), data.Int(r[1])})
	}
	if _, err := cat.BulkUpdate(name, fixtures.Epoch, tb); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestAggregateGroupsCostNoAllocation: a new group appends to the group
// table's arrays and allocates nothing of its own, so one aggregate over
// 3,000 rows costs about the same whether the rows form 3,000 groups or 30:
// only the amortized growth of those arrays and the slabs differs.
func TestAggregateGroupsCostNoAllocation(t *testing.T) {
	for _, vectorized := range []bool{true, false} {
		allocs := groupTableAllocs(t, vectorized, false)
		t.Logf("vectorized=%v: %.0f allocations for 3,000 groups, %.0f for 30", vectorized, allocs[0], allocs[1])
		if d := allocs[0] - allocs[1]; d > 64 || d < -64 {
			t.Errorf("vectorized=%v: 3,000 groups cost %.0f allocations and 30 cost %.0f, want them within 64",
				vectorized, allocs[0], allocs[1])
		}
	}
}

// TestSizedGroupTableAllocatesOnce: given the exact group count, a group table
// allocates its arrays once, so 3,000 groups cost at most 16 allocations more
// than 30 (64 apart while they grow).
func TestSizedGroupTableAllocatesOnce(t *testing.T) {
	for _, vectorized := range []bool{true, false} {
		allocs := groupTableAllocs(t, vectorized, true)
		t.Logf("vectorized=%v, sized: %.0f allocations for 3,000 groups, %.0f for 30", vectorized, allocs[0], allocs[1])
		if d := allocs[0] - allocs[1]; d > 16 {
			t.Errorf("vectorized=%v, sized: 3,000 groups cost %.0f allocations and 30 cost %.0f, want at most 16 more",
				vectorized, allocs[0], allocs[1])
		}
	}
}

// groupTableAllocs returns the allocations of one aggregate over 3,000 rows
// forming 3,000 groups and 30, sized by the exact group count when hinted.
func groupTableAllocs(t *testing.T, vectorized, hinted bool) [2]float64 {
	t.Helper()
	const rows = 3000
	var allocs [2]float64
	for i, groups := range []int64{rows, 30} {
		in := make([][2]int64, rows)
		for r := range in {
			in[r] = [2]int64{int64(r) % groups, int64(r)}
		}
		cat := intTable(t, "T", in)
		n := bindQuery(t, cat, `SELECT K, SUM(V) AS s FROM T GROUP BY K`)
		res, err := (&exec.Executor{Catalog: cat, Vectorized: vectorized}).Run(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(res.Table.NumRows()); got != groups {
			t.Fatalf("vectorized=%v: %d groups, want %d", vectorized, got, groups)
		}
		if got := opBatches(t, "aggregate", res, "Aggregate") > 0; got != vectorized {
			t.Fatalf("vectorized=%v: the aggregate ran on the kernels = %v", vectorized, got)
		}
		var history exec.Compiled
		if hinted {
			history = exactRows(res)
		}
		allocs[i] = testing.AllocsPerRun(5, func() {
			if _, err := (&exec.Executor{Catalog: cat, Vectorized: vectorized, Compiled: history}).Run(n); err != nil {
				t.Fatal(err)
			}
		})
	}
	return allocs
}

// TestGroupCostsItsOutputRow: a group is its output row — four 40-byte cells
// and a 24-byte row header — and nothing else, so a hinted SUM/COUNT/MAX
// aggregate that opens 3,000 groups allocates at most that plus 10 % a group
// more than one that opens 30 over as many rows, on both arms. Running state
// lives in the output cells, and the chain index and the keys are borrowed.
// A group that kept a state with cells of its own beside its row, a slot in
// a second row slice, a map head entry and its key bytes cost 457 B.
func TestGroupCostsItsOutputRow(t *testing.T) {
	const rows, src = 3000, `SELECT K, SUM(V) AS s, COUNT(*) AS n, MAX(V) AS hi FROM T GROUP BY K`
	const row = 4*40 + 24
	for _, vectorized := range []bool{true, false} {
		var runs [2]func()
		for i, groups := range []int64{rows, 30} {
			in := make([][2]int64, rows)
			for r := range in {
				in[r] = [2]int64{int64(r) % groups, int64(r)}
			}
			cat := intTable(t, "T", in)
			n := bindQuery(t, cat, src)
			res, err := (&exec.Executor{Catalog: cat, Vectorized: vectorized}).Run(n)
			if err != nil {
				t.Fatal(err)
			}
			if got := int64(res.Table.NumRows()); got != groups {
				t.Fatalf("vectorized=%v: %d groups, want %d", vectorized, got, groups)
			}
			if got := opBatches(t, src, res, "Aggregate") > 0; got != vectorized {
				t.Fatalf("vectorized=%v: the aggregate ran on the kernels = %v", vectorized, got)
			}
			history := exactRows(res)
			runs[i] = func() {
				if _, err := (&exec.Executor{Catalog: cat, Vectorized: vectorized, Compiled: history}).Run(n); err != nil {
					t.Fatal(err)
				}
			}
		}
		few := warmAlloc(runs[1])
		budget := few + (rows-30)*row*110/100
		got := warmAlloc(runs[0])
		perGroup := float64(int64(got)-int64(few)) / (rows - 30)
		t.Logf("vectorized=%v: %d B for 3,000 groups, %d B for 30: %.1f B a further group, %d B its output row", vectorized, got, few, perGroup, row)
		if got > budget {
			t.Errorf("vectorized=%v: %.1f B a further group, want at most its %d B output row + 10%%", vectorized, perGroup, row)
		}
	}
}

// observedRows is an exec.Compiled that reports fixed rows per node and
// planned no join.
type observedRows map[plan.Node]float64

func (o observedRows) ObservedRows(n plan.Node) (float64, bool) {
	rows, ok := o[n]
	return rows, ok
}

func (observedRows) JoinAlgo(*plan.Join) plan.JoinAlgo { return plan.JoinAuto }

// joinAlgo is an exec.Compiled that planned every join with one algorithm
// and has seen no node run.
type joinAlgo plan.JoinAlgo

func (joinAlgo) ObservedRows(plan.Node) (float64, bool) { return 0, false }

func (a joinAlgo) JoinAlgo(*plan.Join) plan.JoinAlgo { return plan.JoinAlgo(a) }

// hintsFrom reports f of each aggregate's RowsOut in res: with f the
// identity, what history holds after res.
func hintsFrom(res *exec.RunResult, f func(exact float64) float64) observedRows {
	o := observedRows{}
	for _, st := range res.Stats {
		if st.Node.OpName() == "Aggregate" {
			o[st.Node] = f(float64(st.RowsOut))
		}
	}
	return o
}

func exactRows(res *exec.RunResult) observedRows {
	return hintsFrom(res, func(exact float64) float64 { return exact })
}

// TestWrongHintNeverChangesAnAnswer: a group table's size is capacity only.
// The corpus and the aggregate edge cases run on both arms with every kind of
// wrong history — absent, 0, 1, half, exact, ten times, +Inf and NaN — and
// each run's table and every NodeStat must equal the run with no history.
func TestWrongHintNeverChangesAnAnswer(t *testing.T) {
	hints := []struct {
		name string
		f    func(exact float64) float64
	}{
		{"0", func(float64) float64 { return 0 }},
		{"1", func(float64) float64 { return 1 }},
		{"exact/2", func(e float64) float64 { return e / 2 }},
		{"exact", func(e float64) float64 { return e }},
		{"10×exact", func(e float64) float64 { return 10 * e }},
		{"+Inf", func(float64) float64 { return math.Inf(1) }},
		{"NaN", func(float64) float64 { return math.NaN() }},
	}
	check := func(label string, cat *catalog.Catalog, views exec.ViewStore, n plan.Node) {
		t.Helper()
		for _, vectorized := range []bool{false, true} {
			run := func(h exec.Compiled) *exec.RunResult {
				t.Helper()
				res, err := (&exec.Executor{Catalog: cat, Views: views, Vectorized: vectorized, Compiled: h}).Run(n)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return res
			}
			ref := run(nil)
			if len(exactRows(ref)) == 0 {
				return // no aggregate ran
			}
			same := func(hint string, got *exec.RunResult) {
				t.Helper()
				name := fmt.Sprintf("%s (vectorized=%v, hint %s)", label, vectorized, hint)
				requireRunsEqual(t, name, ref, got)
				for i := range ref.Stats {
					if a, b := ref.Stats[i], got.Stats[i]; a.Node != b.Node || a.Batches != b.Batches {
						t.Fatalf("%s: stat %d: %+v vs %+v", name, i, a, b)
					}
				}
			}
			same("absent", run(observedRows{}))
			for _, h := range hints {
				same(h.name, run(hintsFrom(ref, h.f)))
			}
		}
	}

	queries := append(append([]string{}, vecEquivalenceQueries...), adversarialQueries...)
	for _, sales := range []int{0, 1, 1025, 12000} {
		cat := adversarialCatalog(t, fixtures.RetailConfig{Customers: sales/3 + 1, Parts: 50, Sales: sales, Seed: 42})
		for _, src := range queries {
			check(fmt.Sprintf("%d sales: %s", sales, src), cat, nil, bindQuery(t, cat, src))
		}
	}
	empty := emptyWorld(t)
	for _, src := range append([]string{`SELECT Name, COUNT(*) AS n, SUM(Value) AS s FROM Empty GROUP BY Name`}, globalOverEmptyQueries...) {
		check(src, empty, nil, bindQuery(t, empty, src))
	}
	ints := intTable(t, "T", [][2]int64{{0, 1 << 53}, {1, 1}, {0, 1}, {1, -1 << 53}, {0, 1}, {1, -1}})
	for _, src := range []string{`SELECT SUM(V) AS s FROM T`, `SELECT K, SUM(V) AS s, MIN(V) AS lo FROM T GROUP BY K HAVING s > 0`} {
		check(src, ints, nil, bindQuery(t, ints, src))
	}

	// mult = 0: the aggregate reads an empty view stored at multiplier 0.
	src := `SELECT Name, COUNT(*) AS n FROM Empty GROUP BY Name`
	n := bindQuery(t, empty, src)
	var in data.Schema
	plan.Walk(n, func(m plan.Node) {
		if a, ok := m.(*plan.Aggregate); ok {
			in = a.Child.Schema()
			a.Child = &plan.ViewScan{StrictSig: "v0", Out: in}
		}
	})
	views := &fakeStore{views: map[signature.Sig]*fakeView{"v0": {t: data.NewTable(in), mult: 0}}}
	check("mult 0: "+src, empty, views, n)
}

// TestIntSumIsExact: a SUM of an INT argument adds in an int64, so it is not
// rounded through a float64 on either arm. 2^53 + 1 rounds back to 2^53 as a
// float64, so a float sum of 2^53, 1 and 1 reads 2^53.
func TestIntSumIsExact(t *testing.T) {
	const big = 1 << 53
	cat := intTable(t, "T", [][2]int64{{0, big}, {1, 1}, {0, 1}, {1, -big}, {0, 1}, {1, -1}})
	for _, c := range []struct {
		src  string
		want []int64
	}{
		{`SELECT SUM(V) AS s FROM T`, []int64{2}},
		{`SELECT K, SUM(V) AS s FROM T GROUP BY K`, []int64{big + 2, -big}},
	} {
		row, vec := runBoth(t, cat, c.src)
		requireRunsEqual(t, c.src, row, vec)
		for _, res := range []*exec.RunResult{row, vec} {
			var got []int64
			for _, r := range res.Table.Rows {
				s := r[len(r)-1]
				if s.Kind != data.KindInt {
					t.Fatalf("%s: SUM of an INT is %v, want an INT", c.src, s.Kind)
				}
				got = append(got, s.I)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s: sums %v, want %v", c.src, got, c.want)
			}
		}
	}
}

// TestOperatorRowsDoNotAlias: rows an operator creates share chunks, but each
// is capped at its own length and none overlaps another or its input — an
// append or a write on one output row reaches nothing else. An operator that
// creates no row (Filter, Union, a UDO that leaves a row as it found it) passes
// its input's rows on instead, which is why nobody may write to a row they
// were given: NormalizeStrings is held to both halves, fresh rows over a
// mixed-case input and the input's own rows over a lower-case one.
func TestOperatorRowsDoNotAlias(t *testing.T) { requireOperatorRowsDoNotAlias(t) }

func requireOperatorRowsDoNotAlias(t *testing.T) {
	cat, err := fixtures.Retail(fixtures.RetailConfig{Customers: 100, Parts: 20, Sales: 1500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// CleanCustomer is Customer already lower-cased: nothing left to normalize.
	customer, err := cat.Latest("Customer")
	if err != nil {
		t.Fatal(err)
	}
	clean := customer.Table.Clone()
	for _, r := range clean.Rows {
		for j, v := range r {
			if v.Kind == data.KindString {
				r[j] = data.String_(strings.ToLower(v.S))
			}
		}
	}
	if _, err := cat.Define("CleanCustomer", clean.Schema); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.BulkUpdate("CleanCustomer", fixtures.Epoch, clean); err != nil {
		t.Fatal(err)
	}
	inputs := func() string {
		var fp string
		for _, name := range []string{"Sales", "Customer", "CleanCustomer"} {
			v, err := cat.Latest(name)
			if err != nil {
				t.Fatal(err)
			}
			fp += v.Table.Fingerprint()
		}
		return fp
	}
	before := inputs()
	for _, src := range []string{
		`PROCESS Sales USING "AddRowTag"`,
		`PROCESS Sales USING "StampIngestTime"`,
		// Mixed case: every Customer row has a capitalized segment to lower.
		`PROCESS Customer USING "NormalizeStrings"`,
		`SELECT SaleId, Price * Quantity AS revenue FROM Sales`,
		// A bare join: the residual is tested on one reused probe row, and
		// only the pairs it keeps become output rows.
		`SELECT * FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id AND Sales.Quantity + Customer.Id > 3`,
		`SELECT CustomerId, COUNT(*) AS n, SUM(Price) AS total, MIN(Quantity) AS mn FROM Sales GROUP BY CustomerId`,
	} {
		for _, vectorized := range []bool{true, false} {
			res, err := (&exec.Executor{Catalog: cat, Vectorized: vectorized}).Run(bindQuery(t, cat, src))
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			out := res.Table
			if last := res.Stats[len(res.Stats)-1].Node.OpName(); last == "Filter" || last == "Scan" {
				t.Fatalf("%s: the plan ends in %s, whose output rows are its input's", src, last)
			}
			if out.NumRows() < 2*16 {
				t.Fatalf("%s: %d rows, too few to share a chunk", src, out.NumRows())
			}
			want := out.Clone()
			for i, r := range out.Rows {
				if cap(r) != len(r) {
					t.Fatalf("%s (vectorized=%v): row %d has len %d cap %d", src, vectorized, i, len(r), cap(r))
				}
				_ = append(r, data.String_("spill"))
				if i%2 == 0 {
					for j := range r {
						r[j] = data.String_("scribble")
					}
				}
			}
			for i := 1; i < len(out.Rows); i += 2 {
				for j, v := range out.Rows[i] {
					if !valueExactEqual(v, want.Rows[i][j]) {
						t.Fatalf("%s (vectorized=%v): row %d col %d changed to %v by writes to its neighbours", src, vectorized, i, j, v)
					}
				}
			}
			if inputs() != before {
				t.Fatalf("%s (vectorized=%v): writing the output changed an input table", src, vectorized)
			}
		}
	}

	// Lower case: no cell changes, so no row is created — the output's rows
	// are the catalog version's, in order, and reading is all anyone may do.
	for _, vectorized := range []bool{true, false} {
		res, err := (&exec.Executor{Catalog: cat, Vectorized: vectorized}).Run(bindQuery(t, cat, `PROCESS CleanCustomer USING "NormalizeStrings"`))
		if err != nil {
			t.Fatal(err)
		}
		if res.Table == clean || res.Table.NumRows() != clean.NumRows() {
			t.Fatalf("vectorized=%v: the UDO returned its input table, or %d of %d rows", vectorized, res.Table.NumRows(), clean.NumRows())
		}
		for i, r := range res.Table.Rows {
			if &r[0] != &clean.Rows[i][0] || len(r) != len(clean.Rows[i]) {
				t.Fatalf("vectorized=%v: output row %d is a copy, want the input row itself", vectorized, i)
			}
		}
	}
	if inputs() != before {
		t.Fatal("normalizing a clean table changed it")
	}
}

// windowSizes straddle zero, one and two window boundaries.
var windowSizes = []int{0, 1, 1023, 1024, 1025, 2049, 3000}

func windows(n int) int64 { return int64((n + 1023) / 1024) }

// boundaryCatalog holds T (n rows of A Int, B String, C Float) and a clean
// 100-row dimension D (K Int, V String). bad, when not "", spoils column col
// of row at: "null" and "kind" put a NULL or a cell of another kind there,
// "short" cuts the row down to column A. A spoiled row's A is -1, so filters
// drop it and it joins nothing: a short row may not reach an output table.
func boundaryCatalog(t *testing.T, n int, bad string, col, at int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	schema := data.Schema{
		{Name: "A", Kind: data.KindInt},
		{Name: "B", Kind: data.KindString},
		{Name: "C", Kind: data.KindFloat},
	}
	tb := data.NewTable(schema)
	for i := 0; i < n; i++ {
		tb.Append(data.Row{data.Int(int64(i % 40)), data.String_(fmt.Sprintf("b%d", i%7)), data.Float(float64(i%13) / 4)})
	}
	if bad != "" {
		row := tb.Rows[at]
		row[0] = data.Int(-1)
		switch bad {
		case "null":
			row[col] = data.Null()
		case "kind":
			row[col] = data.Bool(true)
		case "short":
			tb.Rows[at] = row[:1]
		}
	}
	dim := data.NewTable(data.Schema{{Name: "K", Kind: data.KindInt}, {Name: "V", Kind: data.KindString}})
	for i := 0; i < 100; i++ {
		dim.Append(data.Row{data.Int(int64(i)), data.String_(fmt.Sprintf("v%d", i))})
	}
	for name, tab := range map[string]*data.Table{"T": tb, "D": dim} {
		if _, err := cat.Define(name, tab.Schema); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.BulkUpdate(name, fixtures.Epoch, tab); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// TestWindowBoundariesAndDeclineBeforeConsume: each kernel operator over
// tables that end before, on and after a window boundary equals the row loop
// and reports one batch per window; with one cell the kernels cannot represent
// in a referenced column — in the first, a middle or the last window — the
// operator declines having consumed nothing (Batches 0, and an aggregate that
// found out at window 3 would have counted the first two windows twice) and
// still equals the row loop.
func TestWindowBoundariesAndDeclineBeforeConsume(t *testing.T) {
	const joinLeft, joinRight = "join keys, left", "join keys, right"
	cases := []struct {
		what, op, src string
		col           int // the referenced column to spoil
	}{
		{"filter", "Filter", `SELECT * FROM T WHERE A > 30 AND A < 39`, 0},
		{"filter", "Filter", `SELECT * FROM T WHERE A > 30 AND B != 'b3'`, 1},
		{"project", "Project", `SELECT A % 7 AS a7, C < 2 AS c2 FROM T`, 2},
		{joinLeft, "Join", `SELECT * FROM T JOIN D ON T.A = D.K`, 0},
		{joinRight, "Join", `SELECT * FROM D JOIN T ON D.K = T.A`, 0},
		{"aggregate, group-by column", "Aggregate", `SELECT B, COUNT(*) AS n, SUM(C) AS s FROM T GROUP BY B`, 1},
		{"aggregate, argument column", "Aggregate", `SELECT A, COUNT(*) AS n, SUM(C) AS s, MIN(C) AS lo FROM T GROUP BY A`, 2},
		// Sort has one loop: it reports no batch, and equals itself.
		{"sort", "Sort", `SELECT * FROM T ORDER BY B DESC, A`, 1},
	}
	for _, n := range windowSizes {
		type spoiled struct {
			bad string
			at  int
		}
		spoil := []spoiled{{}}
		if n > 0 {
			for _, at := range []int{min(5, n-1), n / 2, n - 1} {
				for _, bad := range []string{"null", "kind", "short"} {
					spoil = append(spoil, spoiled{bad, at})
				}
			}
		}
		for _, c := range cases {
			for _, sp := range spoil {
				cat := boundaryCatalog(t, n, sp.bad, c.col, sp.at)
				what := fmt.Sprintf("%d rows, %s, %s at row %d: %s", n, c.what, sp.bad, sp.at, c.src)
				row, vec := runBoth(t, cat, c.src)
				requireRunsEqual(t, what, row, vec)
				want := windows(n)
				switch {
				case c.op == "Sort":
					want = 0
				case c.op == "Join" && sp.bad == "":
					want += windows(100)
				case c.op == "Join":
					want = windows(100) // the other side's keys still come from the kernels
				case sp.bad != "":
					want = 0
				}
				if got := opBatches(t, what, vec, c.op); got != want {
					t.Errorf("%s: %s reported %d batches, want %d", what, c.op, got, want)
				}
			}
		}
	}
}

// sameTable reports whether a and b hold the same rows in the same order.
func sameTable(a, b *data.Table) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i, ra := range a.Rows {
		if len(ra) != len(b.Rows[i]) {
			return false
		}
		for j := range ra {
			if !valueExactEqual(ra[j], b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestPooledBuffersNeverEscape holds the scratch's invariant — no table an
// operator returns aliases a window, a join scratch or a group table's
// scratch it borrowed — by overwriting every buffer with sentinels as it goes
// back: the equivalence corpus, the row-aliasing test, the positions matrix,
// and executors on several goroutines handing each other their scratches
// through the free list must all still read the row loop's answer. A
// violation shows as a changed answer or, under -race, as a write to a buffer
// a returned table still reads.
func TestPooledBuffersNeverEscape(t *testing.T) {
	exec.PoisonReleasedBuffers(t)
	requireCorpusEquivalent(t)
	requireOperatorRowsDoNotAlias(t)
	requirePositionsMatrix(t)

	cat := adversarialCatalog(t, fixtures.RetailConfig{Customers: 300, Parts: 50, Sales: 3000, Seed: 11})
	// Filter → join (with a residual) → aggregate → sort, a string-keyed
	// variant, a projection of gathered strings and kernel output, and a
	// projection over a join, which reads the join's pairs.
	var plans []plan.Node
	var want []*data.Table
	for _, src := range []string{
		`SELECT MktSegment, COUNT(*) AS n, SUM(Price) AS rev, MAX(Quantity % 4) AS q
			FROM (SELECT * FROM Sales WHERE Price > 20) AS s
			JOIN Customer ON s.CustomerId = Customer.Id AND s.Quantity + Customer.Id > 3
			GROUP BY MktSegment ORDER BY rev DESC`,
		`SELECT Name, MIN(Price) AS lo, MAX(MktSegment) AS hi
			FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id
			WHERE MktSegment != 'Asia' GROUP BY Name ORDER BY Name DESC`,
		`SELECT Name, MktSegment = 'Asia' AS asia, Id % 7 AS m FROM Customer ORDER BY m, Name`,
		`SELECT Name, Price < 50 AS cheap, Quantity % 3 AS q
			FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id AND Sales.Quantity + Customer.Id > 3`,
	} {
		n := bindQuery(t, cat, src)
		res, err := (&exec.Executor{Catalog: cat}).Run(n)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if res.Table.NumRows() == 0 {
			t.Fatalf("%s: empty answer", src)
		}
		plans, want = append(plans, n), append(want, res.Table)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 8; it++ {
				k := (g + it) % len(plans)
				res, err := (&exec.Executor{Catalog: cat, Vectorized: true}).Run(plans[k])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if totalBatches(res) == 0 {
					t.Errorf("goroutine %d: plan %d ran no kernel", g, k)
				}
				if !sameTable(res.Table, want[k]) {
					t.Errorf("goroutine %d: plan %d differs from the row loop's answer", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// warmAlloc returns the bytes one call of run allocates after a warm-up call.
// The run's scratch survives a collection (TestScratchSurvivesCollection), so
// one measurement is what the code allocates, whatever the collector did.
func warmAlloc(run func()) uint64 {
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestJoinOutputIsAllocatedOnce: a join records the pairs it keeps and then
// builds its table at the exact size, so what it allocates beyond keying and
// probing its inputs — measured by the same join under a residual that
// rejects every pair — is the output's cells (40 bytes) and row headers (24)
// and at most 15 % more. Speculative rows, a slab grown by doubling or a Rows
// slice grown by append each cost more than that.
func TestJoinOutputIsAllocatedOnce(t *testing.T) {
	cat, err := fixtures.Retail(fixtures.RetailConfig{Customers: 60, Parts: 20, Sales: 1500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const join = `SELECT * FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id`
	for _, c := range []struct{ what, keep, none string }{
		{"no residual", join, join + ` AND Sales.Quantity < 0`},
		{"a residual that rejects most pairs", join + ` AND Sales.Quantity + Customer.Id > 45`, join + ` AND Sales.Quantity + Customer.Id < 0`},
	} {
		for _, algo := range []plan.JoinAlgo{plan.JoinHash, plan.JoinMerge, plan.JoinLoop} {
			for _, vectorized := range []bool{true, false} {
				var out *data.Table
				run := func(src string) func() {
					n := bindQuery(t, cat, src)
					return func() {
						res, err := (&exec.Executor{Catalog: cat, Vectorized: vectorized, Compiled: joinAlgo(algo)}).Run(n)
						if err != nil {
							t.Fatal(err)
						}
						out = res.Table
					}
				}
				keying := warmAlloc(run(c.none))
				if out.NumRows() != 0 {
					t.Fatalf("%s: the reject-all residual kept %d pairs", c.what, out.NumRows())
				}
				keep := run(c.keep)
				keep()
				rows := out.NumRows()
				output := uint64(rows*len(out.Schema)*40 + rows*24)
				if rows < 100 || (c.what != "no residual" && rows > 1500/4) {
					t.Fatalf("%s: %d output rows", c.what, rows)
				}
				budget := keying + output + output*15/100
				got := warmAlloc(keep)
				t.Logf("%s, %v, vectorized=%v: %d B for %d B of output (%d rows) over %d B of keying", c.what, algo, vectorized, got, output, rows, keying)
				if got > budget {
					t.Errorf("%s, %v, vectorized=%v: %d B allocated, want at most %d (keying %d + output %d + 15%%)",
						c.what, algo, vectorized, got, budget, keying, output)
				}
			}
		}
	}
}

// TestKernelScratchIsBorrowed: a warm filter + aggregate over three windows
// allocates what it returns — the filter's selection, the groups' rows and
// table — and a fixed few KB of compiled expressions and bookkeeping; no
// column copy, no per-node scratch, no constant broadcast, no group state.
func TestKernelScratchIsBorrowed(t *testing.T) {
	cat := boundaryCatalog(t, 3000, "", 0, 0)
	n := bindQuery(t, cat, `SELECT A, COUNT(*) AS n, SUM(A % 7) AS s, MIN(B) AS lo FROM T WHERE A > 9 AND B != 'b3' GROUP BY A`)
	var res *exec.RunResult
	run := func() {
		var err error
		if res, err = (&exec.Executor{Catalog: cat, Vectorized: true}).Run(n); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var kept, groups int64
	for _, st := range res.Stats {
		switch st.Node.OpName() {
		case "Filter":
			kept = st.RowsOut
			if st.Batches != 3 {
				t.Fatalf("Filter ran %d batches, want 3", st.Batches)
			}
		case "Aggregate":
			groups = st.RowsOut
			if st.Batches != windows(int(kept)) {
				t.Fatalf("Aggregate ran %d batches over %d rows", st.Batches, kept)
			}
		}
	}
	if kept < 1500 || groups != 30 {
		t.Fatalf("filter kept %d rows, aggregate made %d groups", kept, groups)
	}
	// Filter: one int32 index per kept row and the bitmap. Aggregate:
	// 30 groups take slab chunks of 16 and 32, each slot a 4-cell row that
	// holds the group's running state. Fixed: the groups' row slice, the
	// compiled expressions, the run's own records — 15 KB when this was
	// written, less than any one window a kernel might make again.
	const fixed = 20 << 10
	budget := uint64(kept*4+3000/8+48*4*40) + fixed
	got := warmAlloc(run)
	t.Logf("%d B allocated by a warm run, budget %d (%d B fixed)", got, budget, fixed)
	if got > budget {
		t.Errorf("a warm filter + aggregate allocated %d B, want at most %d", got, budget)
	}
}

// TestScratchSurvivesCollection: a warm filter + join + aggregate on the
// kernels makes the same number of allocations right after two collections as
// with none between, because the windows, the join's scratch and the group
// table's live in a scratch the run takes from a free list no collection
// empties. Kept in sync.Pools, they were all made again after a collection.
// The runtime allocates on its own around a collection (a sudog for a mark
// worker, an m for a new thread), and a process-wide count sees that too, so
// each count is the least of three tries; the executor's never varies.
func TestScratchSurvivesCollection(t *testing.T) {
	cat, err := fixtures.Retail(fixtures.RetailConfig{Customers: 60, Parts: 20, Sales: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n := bindQuery(t, cat, `SELECT MktSegment, COUNT(*) AS n, SUM(Price) AS s
		FROM (SELECT * FROM Sales WHERE Price > 20) AS s JOIN Customer ON s.CustomerId = Customer.Id
		GROUP BY MktSegment`)
	// least returns the fewest allocations of three runs, each after collect.
	least := func(collect func()) uint64 {
		fewest := ^uint64(0)
		for range 3 {
			collect()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := (&exec.Executor{Catalog: cat, Vectorized: true}).Run(n)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range []string{"Filter", "Join", "Aggregate"} {
				if opBatches(t, op, res, op) == 0 {
					t.Fatalf("the %s ran on its row loop", op)
				}
			}
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return fewest
	}
	least(func() {})
	warm := least(func() {})
	if got := least(func() { runtime.GC(); runtime.GC() }); got != warm {
		t.Errorf("a run after two collections made %d allocations, a warm run %d", got, warm)
	}
}

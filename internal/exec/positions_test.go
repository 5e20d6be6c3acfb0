package exec_test

import (
	"fmt"
	"testing"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
)

// positionsCatalog holds T (n rows of A Int, B String, C Float), the 40-row
// dimension D (K Int, V String) and TD, T's rows joined to D's already
// (A B C K V): T JOIN D ON T.A = D.K has TD's rows, one per row of T. bad,
// when not "", puts a NULL ("null") or a Bool ("kind") into column col of T's
// and TD's row at; that row's A is 39, so it survives every producer's filter
// and residual and reaches the producer's output.
func positionsCatalog(t *testing.T, n int, bad string, col, at int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tb := data.NewTable(data.Schema{
		{Name: "A", Kind: data.KindInt},
		{Name: "B", Kind: data.KindString},
		{Name: "C", Kind: data.KindFloat},
	})
	for i := 0; i < n; i++ {
		tb.Append(data.Row{data.Int(int64(i % 40)), data.String_(fmt.Sprintf("b%d", i%7)), data.Float(float64(i%13) / 4)})
	}
	if bad != "" {
		row := tb.Rows[at]
		row[0] = data.Int(39)
		if bad == "null" {
			row[col] = data.Null()
		} else {
			row[col] = data.Bool(true)
		}
	}
	dim := data.NewTable(data.Schema{{Name: "K", Kind: data.KindInt}, {Name: "V", Kind: data.KindString}})
	for i := 0; i < 40; i++ {
		dim.Append(data.Row{data.Int(int64(i)), data.String_(fmt.Sprintf("v%d", i%9))})
	}
	wide := data.NewTable(append(append(data.Schema{}, tb.Schema...), dim.Schema...))
	for _, row := range tb.Rows {
		wide.Append(append(append(data.Row{}, row...), dim.Rows[row[0].I]...))
	}
	for name, tab := range map[string]*data.Table{"T": tb, "D": dim, "TD": wide} {
		if _, err := cat.Define(name, tab.Schema); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.BulkUpdate(name, fixtures.Epoch, tab); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// positionsResidual rejects the rows and pairs with A ≤ 2 (their K is A): a
// join's residual, or a second term of a filter's predicate.
const positionsResidual = ` AND A != K % 3`

// producer is an operator that hands its parent positions where the parent
// reads them: src is its FROM item over positionsCatalog, with %[1]s standing
// for the residual, and its output has the columns A B C K V.
type producer struct {
	what, src string
	join      bool // a join, whose cost model the matrix varies; else a filter
}

var producers = []producer{
	{what: "filter over a table", src: `(SELECT * FROM TD WHERE A > 0%[1]s) AS p`},
	{what: "join over tables", src: `T JOIN D ON T.A = D.K%[1]s`, join: true},
	{what: "join over a selection", src: `(SELECT * FROM T WHERE A > 0) AS t JOIN D ON t.A = D.K%[1]s`, join: true},
	{what: "join over two selections", src: `(SELECT * FROM T WHERE A > 0) AS t JOIN (SELECT * FROM D WHERE K > 1) AS d ON t.A = d.K%[1]s`, join: true},
}

// parentCase is one parent kind over a producer: src with %[1]s standing for
// the producer, then wrap, when set, rebuilds the bound plan around it.
type parentCase struct {
	what  string
	src   string
	wrap  func(root, prod plan.Node) plan.Node
	reads string // what the parent takes on the kernels: "pairs" (and a selection), "selection", or rows ("")
	spoil int    // a column of T the parent reads, spoiled to force its row loop; -1 for none
	op    string // the parent, whose Batches tell kernels from row loop
}

var parentCases = []parentCase{
	{what: "aggregate", src: `SELECT V, COUNT(*) AS n, SUM(C) AS s, MIN(B) AS lo FROM %[1]s GROUP BY V`, reads: "pairs", spoil: 1, op: "Aggregate"},
	{what: "aggregate reading no column", src: `SELECT COUNT(*) AS n FROM %[1]s`, reads: "pairs", spoil: -1},
	{what: "project", src: `SELECT C < 2 AS c2, V, B FROM %[1]s`, reads: "pairs", spoil: 2, op: "Project"},
	// The kernels never compile a call: its row loop reads rows.
	{what: "project with a call", src: `SELECT UPPER(V) AS v, C FROM %[1]s`, spoil: -1},
	{what: "filter", src: `SELECT * FROM %[1]s WHERE C > 1`, spoil: -1},
	{what: "sort", src: `SELECT * FROM %[1]s ORDER BY C DESC, A`, spoil: -1},
	{what: "sample", src: `SELECT * FROM %[1]s SAMPLE 50 PERCENT`, spoil: -1},
	{what: "union", src: `SELECT * FROM %[1]s UNION ALL SELECT * FROM %[1]s`, spoil: -1},
	// A join takes a selection, but a join under a join stays whole.
	{what: "join", src: `SELECT d2.V, COUNT(*) AS n FROM (SELECT * FROM %[1]s) AS x JOIN D AS d2 ON x.A = d2.K GROUP BY d2.V`, reads: "selection", spoil: -1},
	{what: "udo", src: `SELECT * FROM %[1]s`, spoil: -1, wrap: func(_, p plan.Node) plan.Node {
		impl, _ := plan.LookupUDO("AddRowTag")
		return &plan.UDO{Name: "AddRowTag", Child: p, Out: impl.OutSchema(p.Schema())}
	}},
	{what: "spool", src: `SELECT * FROM %[1]s`, spoil: -1, wrap: func(_, p plan.Node) plan.Node {
		return &plan.Spool{Child: p, StrictSig: "spool", Path: "views/spool"}
	}},
	{what: "output", src: `SELECT * FROM %[1]s`, spoil: -1, wrap: func(_, p plan.Node) plan.Node {
		return &plan.Output{Target: "out/positions", Child: p}
	}},
	// An aggregate over a view that is not there: the producer is the fallback.
	{what: "view-scan fallback", src: `SELECT V, COUNT(*) AS n FROM %[1]s GROUP BY V`, spoil: -1, wrap: func(root, p plan.Node) plan.Node {
		agg := *root.(*plan.Aggregate)
		agg.Child = &plan.ViewScan{StrictSig: "absent", Out: p.Schema(), Fallback: p}
		return &agg
	}},
}

// positional reports whether the parent takes p's positions on the kernels.
func (c parentCase) positional(p producer) bool {
	return c.reads == "pairs" || (c.reads == "selection" && !p.join)
}

// plan binds the case over p (with residual) and returns it with the
// producer — the innermost join, or the filter — and the producer's
// selections, the filters a join reads.
func (c parentCase) plan(t *testing.T, cat *catalog.Catalog, p producer, residual string) (root, prod plan.Node, sels []plan.Node) {
	t.Helper()
	root = bindQuery(t, cat, fmt.Sprintf(c.src, fmt.Sprintf(p.src, residual)))
	var filters []plan.Node
	plan.Walk(root, func(m plan.Node) {
		switch x := m.(type) {
		case *plan.Join:
			prod = x
		case *plan.Filter:
			if _, ok := x.Child.(*plan.Scan); ok {
				filters = append(filters, x)
			}
		}
	})
	if p.join {
		sels = filters
	} else {
		prod = filters[len(filters)-1]
	}
	if c.wrap != nil {
		root = c.wrap(root, prod)
	}
	return root, prod, sels
}

// positionsRun is one arm's run of a case, with the producer and its
// selections alone signed for the result cache. A join's pairs are never
// stored and a filter's selection is stored as one, so the cache tells what
// each handed its parent.
type positionsRun struct {
	res        *exec.RunResult
	prod       *exec.CacheEntry // the producer's entry, nil when none was stored
	selections int              // the producer's selections stored as positions
	stored     int              // the producer's selections stored at all
	spool      *data.Table
}

func runPositions(t *testing.T, cat *catalog.Catalog, root, prod plan.Node, sels []plan.Node, algo plan.JoinAlgo, vectorized bool) positionsRun {
	t.Helper()
	signer := &signature.Signer{EngineVersion: "positions"}
	sigs := map[plan.Node]signature.Sig{}
	for _, n := range append([]plan.Node{prod}, sels...) {
		sigs[n] = signer.Physical(n)[n]
	}
	cache := exec.NewCache()
	store := &fakeStore{views: map[signature.Sig]*fakeView{}}
	ex := &exec.Executor{Catalog: cat, Views: store, Cache: cache, SigMap: sigs, Vectorized: vectorized, Compiled: joinAlgo(algo)}
	res, err := ex.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	run := positionsRun{res: res}
	run.prod, _ = cache.Get(sigs[prod])
	for _, n := range sels {
		if e, ok := cache.Get(sigs[n]); ok {
			run.stored++
			if e.Pos != nil {
				run.selections++
			}
		}
	}
	if v, ok := store.views["spool"]; ok {
		run.spool = v.t
	}
	return run
}

// TestPositionsMatrix: a filter hands its parent a selection and a join its
// pairs exactly when the parent reads positions on the kernels — a join takes
// a selection, an Aggregate or a Project either — and every other parent gets
// rows. Each producer (a filter over a table, a join over tables, a join over
// one or two selections) runs under every parent kind, on tables of 0, 1,
// 1,025 and 2,049 rows, with and without a residual, the join over tables
// under each of the three cost models. Every case equals the row loops (which hand over rows
// alone) cell for cell and NodeStat for NodeStat, BytesOut included. A NULL
// or wrong-kind cell in a column the parent reads, in the first, a middle or
// the last window, sends the parent to its row loop over rows built from the
// positions; clean, the parent runs on the kernels.
func TestPositionsMatrix(t *testing.T) { requirePositionsMatrix(t) }

func requirePositionsMatrix(t *testing.T) {
	type spoiled struct {
		bad string
		at  int
	}
	// Catalogs are read-only to the executor, so one serves every case over it.
	type catKey struct {
		n, col, at int
		bad        string
	}
	cats := map[catKey]*catalog.Catalog{}
	for _, p := range producers {
		// Every cost model runs the one probe: the join over tables takes all
		// three, the joins over selections the hash join's.
		algos := []plan.JoinAlgo{plan.JoinHash}
		if p.what == "join over tables" {
			algos = append(algos, plan.JoinMerge, plan.JoinLoop)
		}
		for _, n := range []int{0, 1, 1025, 2049} {
			for _, residual := range []string{"", positionsResidual} {
				for _, algo := range algos {
					for _, c := range parentCases {
						spoil := []spoiled{{}}
						if c.spoil >= 0 && n > 0 {
							for _, at := range []int{0, n / 2, n - 1} {
								spoil = append(spoil, spoiled{"null", at}, spoiled{"kind", at})
							}
						}
						for _, sp := range spoil {
							k := catKey{n, c.spoil, sp.at, sp.bad}
							if sp.bad == "" {
								k = catKey{n: n}
							}
							if cats[k] == nil {
								cats[k] = positionsCatalog(t, n, sp.bad, c.spoil, sp.at)
							}
							cat := cats[k]
							what := fmt.Sprintf("%s, %d rows, %v, residual %q, %s, %s at row %d", p.what, n, algo, residual, c.what, sp.bad, sp.at)
							root, prod, sels := c.plan(t, cat, p, residual)
							row := runPositions(t, cat, root, prod, sels, algo, false)
							vec := runPositions(t, cat, root, prod, sels, algo, true)
							requireRunsEqual(t, what, row.res, vec.res)
							if row.prod == nil || row.prod.Pos != nil || row.stored != len(sels) || row.selections != 0 {
								t.Fatalf("%s: the row loops did not store every result as rows", what)
							}
							// Pairs leave no entry; a selection is stored as one.
							got := vec.prod != nil && vec.prod.Pos != nil
							if p.join {
								got = vec.prod == nil
							}
							if want := c.positional(p); got != want {
								t.Errorf("%s: the kernels' producer handed over positions = %v, want %v", what, got, want)
							}
							if vec.prod == nil && !p.join {
								t.Errorf("%s: the kernels did not store the filter's result", what)
							}
							if vec.stored != len(sels) || vec.selections != len(sels) {
								t.Errorf("%s: %d of the join's %d selections stored, %d as positions", what, vec.stored, len(sels), vec.selections)
							}
							if row.spool != nil && (vec.spool == nil || !sameTable(row.spool, vec.spool)) {
								t.Errorf("%s: the spooled view differs from the row loops'", what)
							}
							if c.op == "" {
								continue
							}
							var produced int64
							for _, st := range vec.res.Stats {
								if st.Node == prod {
									produced = st.RowsOut
								}
							}
							if kernels, want := opBatches(t, what, vec.res, c.op) > 0, sp.bad == "" && produced > 0; kernels != want {
								t.Errorf("%s: %s on the kernels = %v, want %v", what, c.op, kernels, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestJoinPairsAreNeverCached: two jobs share a join's result-cache key and
// their aggregates read different columns of it. Pairs are not stored, so the
// second job computes its join again rather than being served the first's,
// and both answer what the row loops answer.
func TestJoinPairsAreNeverCached(t *testing.T) {
	cat := positionsCatalog(t, 3000, "", 0, 0)
	cache := exec.NewCache()
	var joinSigs []signature.Sig
	for _, src := range []string{
		`SELECT V, SUM(C) AS s FROM %[1]s GROUP BY V`,
		`SELECT B, COUNT(*) AS n, MIN(A) AS lo FROM %[1]s GROUP BY B`,
	} {
		root, join, _ := parentCase{src: src}.plan(t, cat, producers[1], "")
		want, err := (&exec.Executor{Catalog: cat}).Run(root)
		if err != nil {
			t.Fatal(err)
		}
		sig := (&signature.Signer{EngineVersion: "positions"}).Physical(join)[join]
		joinSigs = append(joinSigs, sig)
		got, err := (&exec.Executor{Catalog: cat, Cache: cache, SigMap: map[plan.Node]signature.Sig{join: sig}, Vectorized: true}).Run(root)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTable(got.Table, want.Table) {
			t.Errorf("%s: answered %v, the row loops %v", root, got.Table.Rows, want.Table.Rows)
		}
		if got.CacheHits != 0 {
			t.Errorf("%s: the join was served from the result cache", root)
		}
	}
	if joinSigs[0] != joinSigs[1] {
		t.Fatalf("join signatures %v: the two jobs must share one", joinSigs)
	}
}

// TestFilterSelectionServesEveryParent: job A, an aggregate over filter F,
// stores F's selection in the result cache. Job B (a UNION ALL over F) and
// job C (an Output of F) read rows, so their hits build them, and answer what
// the row loops answer; job D, another aggregate over F, hits it and reads
// the selection itself, allocating less than a row header per survivor.
// Every job counts the hits it counts on the row loops, whose cache holds F's
// rows.
func TestFilterSelectionServesEveryParent(t *testing.T) {
	cat := positionsCatalog(t, 3000, "", 0, 0)
	const f = `(SELECT * FROM TD WHERE A > 4) AS f`
	jobs := []struct {
		what string
		root plan.Node
		hits int
	}{
		{"A, an aggregate", bindQuery(t, cat, `SELECT V, COUNT(*) AS n, SUM(C) AS s FROM `+f+` GROUP BY V`), 0},
		{"B, a union", bindQuery(t, cat, `SELECT * FROM `+f+` UNION ALL SELECT * FROM `+f), 2},
		{"C, an output", &plan.Output{Target: "out/f", Child: bindQuery(t, cat, `SELECT * FROM TD WHERE A > 4`)}, 1},
		{"D, another aggregate", bindQuery(t, cat, `SELECT B, MIN(C) AS lo FROM `+f+` GROUP BY B`), 1},
	}
	signer := &signature.Signer{EngineVersion: "positions"}
	var fSigs []signature.Sig
	sigs := map[plan.Node]signature.Sig{}
	for _, j := range jobs {
		for n, s := range signer.Physical(j.root) {
			sigs[n] = s
			if _, ok := n.(*plan.Filter); ok {
				fSigs = append(fSigs, s)
			}
		}
	}
	for _, s := range fSigs {
		if s != fSigs[0] {
			t.Fatalf("filter signatures %v: the jobs must share one", fSigs)
		}
	}
	caches := map[bool]*exec.Cache{false: exec.NewCache(), true: exec.NewCache()}
	run := func(root plan.Node, vectorized bool) *exec.RunResult {
		res, err := (&exec.Executor{Catalog: cat, Cache: caches[vectorized], SigMap: sigs, Vectorized: vectorized}).Run(root)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, j := range jobs {
		row, vec := run(j.root, false), run(j.root, true)
		requireRunsEqual(t, j.what, row, vec)
		if row.CacheHits != j.hits || vec.CacheHits != j.hits {
			t.Errorf("%s: %d hits on the row loops and %d on the kernels, want %d", j.what, row.CacheHits, vec.CacheHits, j.hits)
		}
		if e, _ := caches[true].Get(fSigs[0]); e == nil || e.Pos == nil {
			t.Fatalf("after %s the kernels' cache does not hold F's selection", j.what)
		}
		if e, _ := caches[false].Get(fSigs[0]); e == nil || e.Pos != nil {
			t.Fatalf("after %s the row loops' cache does not hold F's rows", j.what)
		}
	}
	// D again, with F alone signed so that only F is served from the cache.
	d := jobs[len(jobs)-1].root
	onlyF := map[plan.Node]signature.Sig{}
	plan.Walk(d, func(n plan.Node) {
		if _, ok := n.(*plan.Filter); ok {
			onlyF[n] = fSigs[0]
		}
	})
	e, _ := caches[true].Get(fSigs[0])
	budget := uint64(len(e.Pos) * 24 / 2)
	got := warmAlloc(func() {
		res, err := (&exec.Executor{Catalog: cat, Cache: caches[true], SigMap: onlyF, Vectorized: true}).Run(d)
		if err != nil || res.CacheHits != 1 {
			t.Fatalf("job D: %v, %d hits", err, res.CacheHits)
		}
	})
	t.Logf("job D: %d B a run over %d survivors", got, len(e.Pos))
	if got > budget {
		t.Errorf("job D allocated %d B, want under %d: the hit built F's rows", got, budget)
	}
}

// TestPositionsCostOnlyTheirIndices: under an aggregate, what a join
// allocates for each further pair is its two int32 indices (8 bytes), and what
// a filter allocates for each further survivor is one (4), each plus at most
// 15 %. With rows the parent reads through, the parent commit measured 104 B a
// pair (two read cells and a row header) and 24 B a survivor (a row header).
// The baseline is the same plan keeping only the sales below SaleId 300: it
// keys, probes and filters the same inputs, and its aggregate compiles the
// same kernels and finds the same groups.
func TestPositionsCostOnlyTheirIndices(t *testing.T) {
	cat, err := fixtures.Retail(fixtures.RetailConfig{Customers: 60, Parts: 20, Sales: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const join = `Sales JOIN Customer ON Sales.CustomerId = Customer.Id`
	type variant struct{ what, src, few, op string }
	var variants []variant
	for _, c := range []struct{ what, join string }{
		{"join, no residual", join},
		{"join, a residual that rejects some pairs", join + ` AND Sales.Quantity + Customer.Id > 8`},
	} {
		src := `SELECT MktSegment, COUNT(*) AS n, SUM(Price) AS s FROM %s GROUP BY MktSegment`
		variants = append(variants, variant{c.what, fmt.Sprintf(src, c.join), fmt.Sprintf(src, c.join+` AND Sales.SaleId < 300`), "Join"})
	}
	src := `SELECT Quantity, COUNT(*) AS n, SUM(Price) AS s FROM (SELECT * FROM Sales WHERE Price > 20%s) AS s GROUP BY Quantity`
	variants = append(variants, variant{"filter", fmt.Sprintf(src, ""), fmt.Sprintf(src, ` AND SaleId < 300`), "Filter"})
	for _, v := range variants {
		perRow := uint64(8)
		algos := []plan.JoinAlgo{plan.JoinHash, plan.JoinMerge, plan.JoinLoop}
		if v.op == "Filter" {
			perRow, algos = 4, algos[:1]
		}
		for _, algo := range algos {
			what := v.what
			if v.op == "Join" {
				what = fmt.Sprintf("%s, %v", v.what, algo)
			}
			// run returns the plan's runner and, once it ran, the rows the
			// producer handed over and the groups.
			run := func(src string) (func(), func() (int64, int64)) {
				n := bindQuery(t, cat, src)
				var res *exec.RunResult
				return func() {
						if res, err = (&exec.Executor{Catalog: cat, Vectorized: true, Compiled: joinAlgo(algo)}).Run(n); err != nil {
							t.Fatal(err)
						}
					}, func() (rows, groups int64) {
						for _, st := range res.Stats {
							switch st.Node.OpName() {
							case v.op:
								rows = st.RowsOut
							case "Aggregate":
								groups = st.RowsOut
							}
						}
						return rows, groups
					}
			}
			few, fewOut := run(v.few)
			baseline := warmAlloc(few)
			keep, keepOut := run(v.src)
			keep()
			fewRows, fewGroups := fewOut()
			rows, groups := keepOut()
			if groups != fewGroups || rows < fewRows+500 {
				t.Fatalf("%s: %d rows in %d groups against a baseline of %d in %d", what, rows, groups, fewRows, fewGroups)
			}
			positions := uint64(rows-fewRows) * perRow
			budget := baseline + positions + positions*15/100
			got := warmAlloc(keep)
			t.Logf("%s: %d B for %d rows, %d B for %d, %d B of positions between them", what, got, rows, baseline, fewRows, positions)
			if got > budget {
				t.Errorf("%s: %d B allocated, want at most %d (baseline %d + positions %d + 15%%)",
					what, got, budget, baseline, positions)
			}
		}
	}
}

// appendingParents put an appending UDO under a parent: in src, %[1]s stands
// for the UDO's input, %[2]s for the UDO, %[3]s for the column it appends.
var appendingParents = []struct{ parent, src string }{
	{"Aggregate", `SELECT Quantity, COUNT(*) AS n, MAX(%[3]s) AS t, SUM(Price) AS p FROM (PROCESS %[1]s USING "%[2]s") AS u GROUP BY Quantity`},
	{"Project", `SELECT SaleId, %[3]s, Price < 50 AS cheap FROM (PROCESS %[1]s USING "%[2]s") AS u`},
}

var appendingUDOs = []struct{ name, col string }{{"AddRowTag", "row_tag"}, {"StampIngestTime", "ingest_time"}}

// TestAppendingUDOHandsOverItsColumn: an appending UDO under an Aggregate or
// a Project — AddRowTag and StampIngestTime, over a table, over a filter's
// selection, and over that selection replayed from the result cache, on 0, 1,
// 1,023, 1,024 and 1,025 rows — answers on the kernels, where it hands over
// pairs, what it answers on the row loops, cell for cell and NodeStat for
// NodeStat, with the same hits. A UDO the result cache keys is stored as rows
// on both arms and served from the cache to the next run.
func TestAppendingUDOHandsOverItsColumn(t *testing.T) {
	signer := &signature.Signer{EngineVersion: "appending"}
	for _, sales := range []int{0, 1, 1023, 1024, 1025} {
		cat := adversarialCatalog(t, fixtures.RetailConfig{Customers: sales/3 + 1, Parts: 50, Sales: sales, Seed: 42})
		for _, q := range appendingParents {
			for _, u := range appendingUDOs {
				for _, input := range []string{"a table", "a selection", "a cached selection", "a table, the UDO keyed"} {
					from := "Sales"
					if input != "a table" && input != "a table, the UDO keyed" {
						from = "(SELECT * FROM Sales WHERE Price > 20)"
					}
					src := fmt.Sprintf(q.src, from, u.name, u.col)
					root := bindQuery(t, cat, src)
					// Keyed by strict signature: the signer keys no UDO that
					// reads the clock, and an empty key is none.
					keyed := map[plan.Node]signature.Sig{}
					plan.Walk(root, func(n plan.Node) {
						switch n.(type) {
						case *plan.Filter:
							if input == "a cached selection" {
								keyed[n] = signer.Strict(n)
							}
						case *plan.UDO:
							if input == "a table, the UDO keyed" {
								keyed[n] = signer.Strict(n)
							}
						}
					})
					var runs [2][2]*exec.RunResult
					for arm, vectorized := range []bool{false, true} {
						cache := exec.NewCache()
						for job := range runs[arm] {
							ex := &exec.Executor{Catalog: cat, Cache: cache, SigMap: keyed, Vectorized: vectorized, Ctx: &plan.EvalContext{NowNanos: 1_600_000_000_123_456_789}}
							res, err := ex.Run(root)
							if err != nil {
								t.Fatalf("%s: %v", src, err)
							}
							runs[arm][job] = res
						}
						for n, sig := range keyed {
							e, ok := cache.Get(sig)
							if positions := vectorized && input == "a cached selection"; !ok || (e.Pos != nil) != positions {
								t.Errorf("%d sales, vectorized=%v, %s: the %s's entry stored = %v, want one holding positions = %v", sales, vectorized, src, n.OpName(), ok, positions)
							}
						}
					}
					for job := range runs[0] {
						what := fmt.Sprintf("%d sales, %s over %s, job %d: %s", sales, q.parent, input, job, src)
						row, vec := runs[0][job], runs[1][job]
						requireRunsEqual(t, what, row, vec)
						if want := job * len(keyed); row.CacheHits != want || vec.CacheHits != want {
							t.Errorf("%s: %d hits on the row loops and %d on the kernels, want %d", what, row.CacheHits, vec.CacheHits, want)
						}
						if sales > 0 && opBatches(t, what, vec, q.parent) == 0 {
							t.Errorf("%s: the %s ran on its row loop", what, q.parent)
						}
					}
				}
			}
		}
	}
}

// TestAppendingUDOPairsServeADecliningParent: a NULL or a wrong-kind cell in
// a column the aggregate reads, in the first, a middle or the last window,
// sends the aggregate to its row loop over the rows built from the UDO's
// pairs, which answers what the row loops answer.
func TestAppendingUDOPairsServeADecliningParent(t *testing.T) {
	const n = 2049
	for _, bad := range []string{"null", "kind"} {
		for _, at := range []int{0, n / 2, n - 1} {
			cat := positionsCatalog(t, n, bad, 1, at)
			for _, u := range appendingUDOs {
				src := fmt.Sprintf(`SELECT B, COUNT(*) AS n, MAX(%s) AS t, SUM(C) AS c FROM (PROCESS (SELECT * FROM T WHERE A > 0) USING "%s") AS u GROUP BY B`, u.col, u.name)
				what := fmt.Sprintf("%s at row %d: %s", bad, at, src)
				row, vec := runBoth(t, cat, src)
				requireRunsEqual(t, what, row, vec)
				if nb := opBatches(t, what, vec, "Aggregate"); nb != 0 {
					t.Errorf("%s: the aggregate reported %d batches, want its row loop", what, nb)
				}
			}
		}
	}
}

// TestAppendingUDOCostsItsCells: under an aggregate, what an appending UDO
// allocates for each further input row is its pair of positions (8 bytes),
// its cell (40) and the cell's row header (24), plus at most 15 %, whether
// the input row has three cells or five. A copy of every row with the cell
// appended costs 184 bytes a row of three and 264 a row of five.
func TestAppendingUDOCostsItsCells(t *testing.T) {
	const few, many = 300, 3300
	cats := map[int]*catalog.Catalog{few: positionsCatalog(t, few, "", 0, 0), many: positionsCatalog(t, many, "", 0, 0)}
	for _, table := range []string{"T", "TD"} {
		for _, u := range appendingUDOs {
			src := fmt.Sprintf(`SELECT B, COUNT(*) AS n, MAX(%s) AS t FROM (PROCESS %s USING "%s") AS u GROUP BY B`, u.col, table, u.name)
			alloc := map[int]uint64{}
			for n, cat := range cats {
				root := bindQuery(t, cat, src)
				alloc[n] = warmAlloc(func() {
					if _, err := (&exec.Executor{Catalog: cat, Vectorized: true}).Run(root); err != nil {
						t.Fatal(err)
					}
				})
			}
			perRow := float64(alloc[many]-min(alloc[many], alloc[few])) / (many - few)
			t.Logf("%s over %s: %d B for %d rows, %d B for %d: %.1f B a further row", u.name, table, alloc[many], many, alloc[few], few, perRow)
			if budget := 72 * 1.15; perRow > budget {
				t.Errorf("%s over %s: %.1f B a further row, want at most %.1f", u.name, table, perRow, budget)
			}
		}
	}
}

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

// narrowCatalog holds T (n rows of A Int, B String, C Float) and the 40-row
// dimension D (K Int, V String), so T JOIN D ON T.A = D.K has the logical
// columns A B C K V and one row per row of T. bad, when not "", puts a NULL
// ("null") or a Bool ("kind") into column col of T's row at; that row's A is
// 39, so it survives narrowResidual and reaches the join's output.
func narrowCatalog(t *testing.T, n int, bad string, col, at int) *catalog.Catalog {
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

const (
	narrowJoin = `T JOIN D ON T.A = D.K`
	// narrowResidual rejects the pairs with A ≤ 2.
	narrowResidual = ` AND T.A + D.K > 5`
)

// narrowCase is one parent kind over the join: src with %[1]s standing for
// the join, then wrap, when set, rebuilds the bound plan around it.
type narrowCase struct {
	what     string
	src      string
	wrap     func(root plan.Node, join *plan.Join) plan.Node
	narrowed bool
	spoil    int    // a column of T the parent reads, spoiled to force its row loop; -1 for none
	op       string // the parent, whose Batches tell kernels from row loop
}

var narrowCases = []narrowCase{
	{what: "aggregate", src: `SELECT V, COUNT(*) AS n, SUM(C) AS s, MIN(B) AS lo FROM %[1]s GROUP BY V`, narrowed: true, spoil: 1, op: "Aggregate"},
	{what: "aggregate reading no column", src: `SELECT COUNT(*) AS n FROM %[1]s`, narrowed: true, spoil: -1},
	{what: "project", src: `SELECT C * 2 AS c2, V, B FROM %[1]s`, narrowed: true, spoil: 2, op: "Project"},
	// The kernels never compile a call: its row loop would widen the rows.
	{what: "project with a call", src: `SELECT UPPER(V) AS v, C FROM %[1]s`, spoil: -1},
	{what: "filter", src: `SELECT * FROM %[1]s WHERE C > 1`, spoil: -1},
	{what: "sort", src: `SELECT * FROM %[1]s ORDER BY C DESC, A`, spoil: -1},
	{what: "sample", src: `SELECT * FROM %[1]s SAMPLE 50 PERCENT`, spoil: -1},
	{what: "union", src: `SELECT * FROM %[1]s UNION ALL SELECT * FROM %[1]s`, spoil: -1},
	{what: "join", src: `SELECT d2.V, COUNT(*) AS n FROM (SELECT * FROM %[1]s) AS x JOIN D AS d2 ON x.A = d2.K GROUP BY d2.V`, spoil: -1},
	{what: "udo", src: `SELECT * FROM %[1]s`, spoil: -1, wrap: func(_ plan.Node, j *plan.Join) plan.Node {
		return &plan.UDO{Name: "AddRowTag", Child: j}
	}},
	{what: "spool", src: `SELECT * FROM %[1]s`, spoil: -1, wrap: func(_ plan.Node, j *plan.Join) plan.Node {
		return &plan.Spool{Child: j, StrictSig: "spool", Path: "views/spool"}
	}},
	{what: "output", src: `SELECT * FROM %[1]s`, spoil: -1, wrap: func(_ plan.Node, j *plan.Join) plan.Node {
		return &plan.Output{Target: "out/narrow", Child: j}
	}},
	// An aggregate over a view that is not there: the join is the fallback.
	{what: "view-scan fallback", src: `SELECT V, COUNT(*) AS n FROM %[1]s GROUP BY V`, spoil: -1, wrap: func(root plan.Node, j *plan.Join) plan.Node {
		agg := *root.(*plan.Aggregate)
		agg.Child = &plan.ViewScan{StrictSig: "absent", Out: j.Schema(), Fallback: j}
		return &agg
	}},
}

// plan binds the case over the join (with residual appended to its
// condition) and returns it with the join under test — the innermost one —
// every join running algo.
func (c narrowCase) plan(t *testing.T, cat *catalog.Catalog, residual string, algo plan.JoinAlgo) (plan.Node, *plan.Join) {
	t.Helper()
	root := bindQuery(t, cat, fmt.Sprintf(c.src, narrowJoin+residual))
	var join *plan.Join
	plan.Walk(root, func(m plan.Node) {
		if j, ok := m.(*plan.Join); ok {
			j.Algo, join = algo, j
		}
	})
	if c.wrap != nil {
		root = c.wrap(root, join)
	}
	return root, join
}

// narrowRun is one arm's run of a case, with the join alone signed for the
// result cache: cached reports whether the join's table went into it, which
// a narrowed table never does.
type narrowRun struct {
	res    *exec.RunResult
	cached bool
	spool  *data.Table
}

func runNarrow(t *testing.T, cat *catalog.Catalog, root plan.Node, join *plan.Join, vectorized bool) narrowRun {
	t.Helper()
	sig := (&signature.Signer{EngineVersion: "narrow"}).Physical(join)[join]
	cache := exec.NewCache()
	store := &fakeStore{views: map[signature.Sig]*fakeView{}}
	ex := &exec.Executor{Catalog: cat, Views: store, Cache: cache, SigMap: map[plan.Node]signature.Sig{join: sig}, Vectorized: vectorized}
	res, err := ex.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	_, cached := cache.Get(sig)
	run := narrowRun{res: res, cached: cached}
	if v, ok := store.views["spool"]; ok {
		run.spool = v.t
	}
	return run
}

// TestNarrowingMatrix: a join builds only the columns its parent reads when
// that parent is an Aggregate or a Project, and full rows under every other
// parent, on all three algorithms, with and without a residual, on tables of
// 0, 1, 1,025 and 2,049 rows. Every case equals the row loops (which never
// narrow) cell for cell and NodeStat for NodeStat, BytesOut included. A NULL or wrong-kind cell in a column the parent reads, in the
// first, a middle or the last window, sends the parent to its row loop over
// the narrowed rows; clean, the parent runs on the kernels.
func TestNarrowingMatrix(t *testing.T) { requireNarrowingMatrix(t) }

func requireNarrowingMatrix(t *testing.T) {
	type spoiled struct {
		bad string
		at  int
	}
	for _, n := range []int{0, 1, 1025, 2049} {
		for _, residual := range []string{"", narrowResidual} {
			for _, algo := range []plan.JoinAlgo{plan.JoinHash, plan.JoinMerge, plan.JoinLoop} {
				for _, c := range narrowCases {
					spoil := []spoiled{{}}
					if c.spoil >= 0 && n > 0 {
						for _, at := range []int{0, n / 2, n - 1} {
							spoil = append(spoil, spoiled{"null", at}, spoiled{"kind", at})
						}
					}
					for _, sp := range spoil {
						cat := narrowCatalog(t, n, sp.bad, c.spoil, sp.at)
						what := fmt.Sprintf("%d rows, %v, residual %q, %s, %s at row %d", n, algo, residual, c.what, sp.bad, sp.at)
						root, join := c.plan(t, cat, residual, algo)
						row := runNarrow(t, cat, root, join, false)
						vec := runNarrow(t, cat, root, join, true)
						requireRunsEqual(t, what, row.res, vec.res)
						if !row.cached {
							t.Fatalf("%s: the row loops kept the join out of the result cache", what)
						}
						if vec.cached == c.narrowed {
							t.Errorf("%s: the kernels' join narrowed = %v, want %v", what, !vec.cached, c.narrowed)
						}
						if row.spool != nil && (vec.spool == nil || !sameTable(row.spool, vec.spool)) {
							t.Errorf("%s: the spooled view differs from the row loops'", what)
						}
						if c.op == "" {
							continue
						}
						var joined int64
						for _, st := range vec.res.Stats {
							if st.Node == plan.Node(join) {
								joined = st.RowsOut
							}
						}
						if kernels, want := opBatches(t, what, vec.res, c.op) > 0, sp.bad == "" && joined > 0; kernels != want {
							t.Errorf("%s: %s on the kernels = %v, want %v", what, c.op, kernels, want)
						}
					}
				}
			}
		}
	}
}

// TestNarrowedJoinIsNeverCached: two jobs share a join's result-cache key
// and their aggregates read different columns of it. A narrowed table is not
// the join's result, so the first job may not leave it in the result cache
// for the second to read its columns at the wrong positions.
func TestNarrowedJoinIsNeverCached(t *testing.T) {
	cat := narrowCatalog(t, 3000, "", 0, 0)
	cache := exec.NewCache()
	var joinSigs []signature.Sig
	for _, src := range []string{
		`SELECT V, SUM(C) AS s FROM %[1]s GROUP BY V`,
		`SELECT B, COUNT(*) AS n, MIN(A) AS lo FROM %[1]s GROUP BY B`,
	} {
		root, join := narrowCase{src: src}.plan(t, cat, "", plan.JoinAuto)
		want, err := (&exec.Executor{Catalog: cat}).Run(root)
		if err != nil {
			t.Fatal(err)
		}
		sig := (&signature.Signer{EngineVersion: "narrow"}).Physical(join)[join]
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

// TestNarrowedJoinAllocatesOnlyReadCells: under an aggregate that reads two of
// its ten columns, what a join allocates for each further output row is two
// cells (40 bytes each) and a row header (24), and at most 15 % more. The
// baseline is the same plan keeping only the sales below SaleId 300: it keys
// and probes the same inputs, and its aggregate compiles the same kernels
// and finds the same groups. A join that builds whole rows costs more than
// about four times the allowance.
func TestNarrowedJoinAllocatesOnlyReadCells(t *testing.T) {
	cat, err := fixtures.Retail(fixtures.RetailConfig{Customers: 60, Parts: 20, Sales: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const join = `Sales JOIN Customer ON Sales.CustomerId = Customer.Id`
	if width := len(bindQuery(t, cat, `SELECT * FROM `+join).Schema()); width != 10 {
		t.Fatalf("the join is %d columns wide", width)
	}
	for _, c := range []struct{ what, join string }{
		{"no residual", join},
		{"a residual that rejects some pairs", join + ` AND Sales.Quantity + Customer.Id > 8`},
	} {
		for _, algo := range []plan.JoinAlgo{plan.JoinHash, plan.JoinMerge, plan.JoinLoop} {
			// run returns the plan's runner and, once it ran, its joined rows
			// and groups.
			run := func(on string) (func(), func() (int64, int64)) {
				n := bindQuery(t, cat, `SELECT MktSegment, COUNT(*) AS n, SUM(Price) AS s FROM `+on+` GROUP BY MktSegment`)
				plan.Walk(n, func(m plan.Node) {
					if j, ok := m.(*plan.Join); ok {
						j.Algo = algo
					}
				})
				var res *exec.RunResult
				return func() {
						if res, err = (&exec.Executor{Catalog: cat, Vectorized: true}).Run(n); err != nil {
							t.Fatal(err)
						}
					}, func() (rows, groups int64) {
						for _, st := range res.Stats {
							switch st.Op {
							case "Join":
								rows = st.RowsOut
							case "Aggregate":
								groups = st.RowsOut
							}
						}
						return rows, groups
					}
			}
			few, fewOut := run(c.join + ` AND Sales.SaleId < 300`)
			baseline := leastAlloc(10, 0, few)
			keep, keepOut := run(c.join)
			keep()
			fewRows, fewGroups := fewOut()
			rows, groups := keepOut()
			if groups != fewGroups || rows < fewRows+500 {
				t.Fatalf("%s: %d rows in %d groups against a baseline of %d in %d", c.what, rows, groups, fewRows, fewGroups)
			}
			output := uint64((rows - fewRows) * (2*40 + 24))
			budget := baseline + output + output*15/100
			got := leastAlloc(40, budget, keep)
			t.Logf("%s, %v: %d B for %d rows, %d B for %d, %d B of read cells and headers between them", c.what, algo, got, rows, baseline, fewRows, output)
			if got > budget {
				t.Errorf("%s, %v: %d B allocated, want at most %d (baseline %d + read cells and headers %d + 15%%)",
					c.what, algo, got, budget, baseline, output)
			}
		}
	}
}

package exec_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
)

func runQuery(t *testing.T, src string) (*exec.RunResult, plan.Node) {
	t.Helper()
	cat, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	b := &plan.Binder{Catalog: cat}
	n, err := b.BindQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	ex := &exec.Executor{Catalog: cat}
	res, err := ex.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return res, n
}

func TestScanAll(t *testing.T) {
	res, _ := runQuery(t, `SELECT * FROM Customer`)
	if res.Table.NumRows() != 200 {
		t.Errorf("rows = %d, want 200", res.Table.NumRows())
	}
	if res.InputBytes <= 0 || res.TotalWork <= 0 {
		t.Error("accounting must be positive")
	}
}

func TestFilterCorrectness(t *testing.T) {
	res, _ := runQuery(t, `SELECT * FROM Customer WHERE MktSegment = 'Asia'`)
	if res.Table.NumRows() == 0 || res.Table.NumRows() >= 200 {
		t.Fatalf("unexpected filter output %d", res.Table.NumRows())
	}
	for _, r := range res.Table.Rows {
		if r[2].S != "Asia" {
			t.Fatalf("non-Asia row leaked: %v", r)
		}
	}
}

func TestProjectExpr(t *testing.T) {
	res, _ := runQuery(t, `SELECT Price * Quantity AS revenue, SaleId FROM Sales WHERE SaleId < 10`)
	if res.Table.NumRows() != 10 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	if res.Table.Schema[0].Name != "revenue" {
		t.Errorf("schema = %v", res.Table.Schema)
	}
	for _, r := range res.Table.Rows {
		if r[0].Kind != data.KindFloat {
			t.Errorf("revenue kind = %v", r[0].Kind)
		}
	}
}

// TestJoinAlgorithmsAgree: the join algorithm is the optimizer's cost model
// only. Under hash, merge and loop the same join returns the same rows in the
// same order, cell for cell, and the same NodeStats apart from the join's Algo
// and Work, on both executor arms, with and without a residual.
func TestJoinAlgorithmsAgree(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	const join = `SELECT Name, Price FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id`
	for _, c := range []struct {
		src      string
		residual bool
	}{
		{join + ` WHERE MktSegment = 'Asia'`, false},
		{join + ` AND Sales.Quantity + Customer.Id > 45 WHERE MktSegment = 'Asia'`, true},
	} {
		src := c.src
		n := bindQuery(t, cat, src)
		plan.Walk(n, func(m plan.Node) {
			if j, ok := m.(*plan.Join); ok && (j.Residual != nil) != c.residual {
				t.Fatalf("%s: the join's residual is %v", src, j.Residual)
			}
		})
		for _, vectorized := range []bool{true, false} {
			var want *exec.RunResult
			for _, algo := range []plan.JoinAlgo{plan.JoinHash, plan.JoinMerge, plan.JoinLoop} {
				what := fmt.Sprintf("%s, %v, vectorized=%v", src, algo, vectorized)
				res, err := (&exec.Executor{Catalog: cat, Vectorized: vectorized, Compiled: joinAlgo(algo)}).Run(n)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if want == nil {
					if res.Table.NumRows() == 0 {
						t.Fatalf("%s: empty answer", what)
					}
					want = res
				}
				if !sameTable(res.Table, want.Table) {
					t.Errorf("%s: rows differ from the hash join's", what)
				}
				if len(res.Stats) != len(want.Stats) {
					t.Fatalf("%s: %d stats, the hash join %d", what, len(res.Stats), len(want.Stats))
				}
				for i, got := range res.Stats {
					ref := want.Stats[i]
					_, isJoin := got.Node.(*plan.Join)
					if isJoin && got.Algo != algo {
						t.Errorf("%s: the join reported %v", what, got.Algo)
					}
					got.Node, ref.Node = nil, nil
					if isJoin {
						got.Algo, got.Work, ref.Algo, ref.Work = 0, 0, 0, 0
					}
					if got != ref {
						t.Errorf("%s: stat %d is %+v, the hash join's %+v", what, i, got, ref)
					}
				}
			}
		}
	}
}

func TestJoinAutoChoosesLoopForTinyInput(t *testing.T) {
	res, _ := runQuery(t, `SELECT Name, Brand FROM (SELECT * FROM Parts WHERE PartId < 3) AS p JOIN (SELECT * FROM Customer WHERE Id < 3) AS c ON p.PartId = c.Id`)
	var algo plan.JoinAlgo
	for _, s := range res.Stats {
		if _, ok := s.Node.(*plan.Join); ok {
			algo = s.Algo
		}
	}
	if algo != plan.JoinLoop {
		t.Errorf("algo = %v, want Loop for tiny inputs", algo)
	}
}

func TestAggregateCorrectness(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	// Hand-compute expected counts per segment.
	ver, _ := cat.Latest("Customer")
	want := map[string]int64{}
	for _, r := range ver.Table.Rows {
		want[r[2].S]++
	}
	q, _ := sqlparser.ParseQuery(`SELECT MktSegment, COUNT(*) AS n FROM Customer GROUP BY MktSegment`)
	b := &plan.Binder{Catalog: cat}
	n, _ := b.BindQuery(q)
	ex := &exec.Executor{Catalog: cat}
	res, err := ex.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != len(want) {
		t.Fatalf("groups = %d, want %d", res.Table.NumRows(), len(want))
	}
	for _, r := range res.Table.Rows {
		if r[1].I != want[r[0].S] {
			t.Errorf("count[%s] = %d, want %d", r[0].S, r[1].I, want[r[0].S])
		}
	}
}

func TestAggregateSumAvgMinMax(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	q, _ := sqlparser.ParseQuery(`SELECT SUM(Quantity) AS s, AVG(Quantity) AS a, MIN(Quantity) AS lo, MAX(Quantity) AS hi, COUNT(*) AS n FROM Sales GROUP BY PartId HAVING n > 0`)
	b := &plan.Binder{Catalog: cat}
	n, _ := b.BindQuery(q)
	ex := &exec.Executor{Catalog: cat}
	res, err := ex.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Table.Rows {
		s, a, lo, hi, cnt := r[0].AsFloat(), r[1].F, r[2].I, r[3].I, r[4].I
		if cnt <= 0 {
			t.Fatal("count must be positive")
		}
		if a < float64(lo) || a > float64(hi) {
			t.Errorf("avg %g outside [%d,%d]", a, lo, hi)
		}
		if s != a*float64(cnt) && s-a*float64(cnt) > 1e-6 {
			t.Errorf("sum %g != avg*count %g", s, a*float64(cnt))
		}
	}
}

func TestUnionAll(t *testing.T) {
	res, _ := runQuery(t, `SELECT Name FROM Customer WHERE Id < 5 UNION ALL SELECT Name FROM Customer WHERE Id < 3`)
	if res.Table.NumRows() != 8 {
		t.Errorf("rows = %d, want 8", res.Table.NumRows())
	}
}

func TestUDOExecution(t *testing.T) {
	res, _ := runQuery(t, `PROCESS (SELECT * FROM Customer WHERE Id < 10) USING "NormalizeStrings"`)
	if res.Table.NumRows() != 10 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	for _, r := range res.Table.Rows {
		if r[1].S != strings.ToLower(r[1].S) {
			t.Errorf("not lowercased: %q", r[1].S)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	r1, _ := runQuery(t, `SELECT * FROM Sales SAMPLE 10 PERCENT`)
	r2, _ := runQuery(t, `SELECT * FROM Sales SAMPLE 10 PERCENT`)
	if r1.Table.Fingerprint() != r2.Table.Fingerprint() {
		t.Error("sampling must be deterministic")
	}
	n := r1.Table.NumRows()
	if n < 200 || n > 900 {
		t.Errorf("sample of 5000 at 10%% = %d rows; expected roughly 500", n)
	}
}

func TestSpoolAndViewScanRoundTrip(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	q, _ := sqlparser.ParseQuery(`SELECT * FROM Customer WHERE MktSegment = 'Asia'`)
	b := &plan.Binder{Catalog: cat}
	n, _ := b.BindQuery(q)

	store := &fakeStore{views: map[signature.Sig]*fakeView{}}
	spooled := &plan.Spool{Child: n, StrictSig: "sig1", Path: "views/sig1"}
	ex := &exec.Executor{Catalog: cat, Views: store}
	res, err := ex.Run(spooled)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpoolWork <= 0 {
		t.Error("spool must charge write work")
	}
	v, ok := store.views["sig1"]
	if !ok {
		t.Fatal("view not materialized")
	}
	if v.t.Fingerprint() != res.Table.Fingerprint() {
		t.Error("materialized view differs from pipeline output")
	}

	// Now read it back through a ViewScan.
	vs := &plan.ViewScan{StrictSig: "sig1", Out: n.Schema(), Rows: int64(v.t.NumRows()), Bytes: v.t.ByteSize()}
	ex2 := &exec.Executor{Catalog: cat, Views: store}
	res2, err := ex2.Run(vs)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Table.Fingerprint() != res.Table.Fingerprint() {
		t.Error("view scan result differs")
	}
	if st := res2.Stats[0]; len(res2.Stats) != 1 || st.Node != vs || st.Read <= 0 || res2.InputBytes != 0 || res2.TotalRead != st.Read {
		t.Errorf("view read accounting wrong: stats=%+v input=%d read=%d", res2.Stats, res2.InputBytes, res2.TotalRead)
	}
}

func TestViewScanMissingView(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	vs := &plan.ViewScan{StrictSig: "nope", Out: data.Schema{{Name: "a", Kind: data.KindInt}}}
	ex := &exec.Executor{Catalog: cat, Views: &fakeStore{views: map[signature.Sig]*fakeView{}}}
	if _, err := ex.Run(vs); err == nil {
		t.Error("expected error for missing view")
	}
}

func TestResultCacheReplay(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	q, _ := sqlparser.ParseQuery(`SELECT MktSegment, COUNT(*) AS n FROM Customer GROUP BY MktSegment`)
	b := &plan.Binder{Catalog: cat}
	n, _ := b.BindQuery(q)
	signer := &signature.Signer{EngineVersion: "t"}
	sigMap := map[plan.Node]signature.Sig{}
	for _, s := range signer.Subexpressions(n) {
		sigMap[s.Node] = s.Strict
	}
	cache := exec.NewCache()
	ex1 := &exec.Executor{Catalog: cat, Cache: cache, SigMap: sigMap}
	r1, err := ex1.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHits != 0 {
		t.Errorf("first run hits = %d", r1.CacheHits)
	}

	// Second run over an identical plan (fresh bind → same strict sigs).
	n2, _ := (&plan.Binder{Catalog: cat}).BindQuery(q)
	sigMap2 := map[plan.Node]signature.Sig{}
	for _, s := range signer.Subexpressions(n2) {
		sigMap2[s.Node] = s.Strict
	}
	ex2 := &exec.Executor{Catalog: cat, Cache: cache, SigMap: sigMap2}
	r2, err := ex2.Run(n2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHits != 1 {
		t.Errorf("second run hits = %d, want 1 (root served from cache)", r2.CacheHits)
	}
	if r1.Table.Fingerprint() != r2.Table.Fingerprint() {
		t.Error("cached result differs")
	}
	if r1.TotalWork != r2.TotalWork {
		t.Errorf("replayed accounting differs: %g vs %g", r1.TotalWork, r2.TotalWork)
	}
}

// TestReplayedStatsPointAtTheirPlan: jobs sharing a subexpression run against
// one result cache, each bound afresh: one builds a view of it under a Spool,
// later ones recompute it, replay it, read the view through a ViewScan and
// replay that. After every run each NodeStat points at the node of the run's
// own plan that recorded it, in post-order, and every stored entry holds one
// stat per node of its subtree.
func TestReplayedStatsPointAtTheirPlan(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	signer := &signature.Signer{EngineVersion: "relabel"}
	cache := exec.NewCache()
	store := &fakeStore{views: map[signature.Sig]*fakeView{}}
	const (
		asia = `(SELECT * FROM Customer WHERE MktSegment = 'Asia') AS c`
		agg  = `SELECT MktSegment, COUNT(*) AS n FROM ` + asia + ` GROUP BY MktSegment`
		join = `SELECT Name, Price FROM Sales JOIN ` + asia + ` ON Sales.CustomerId = c.Id`
	)
	atFilter := func(mk func(*plan.Filter) plan.Node) func(plan.Node) plan.Node {
		return func(root plan.Node) plan.Node {
			return plan.Rewrite(root, func(n plan.Node) plan.Node {
				if f, ok := n.(*plan.Filter); ok {
					return mk(f)
				}
				return n
			})
		}
	}
	spool := atFilter(func(f *plan.Filter) plan.Node {
		return &plan.Spool{Child: f, StrictSig: "asia", Path: "views/asia"}
	})
	view := atFilter(func(f *plan.Filter) plan.Node {
		return &plan.ViewScan{StrictSig: "asia", Out: f.Schema(), Fallback: f}
	})
	hits := 0
	for i, job := range []struct {
		src  string
		wrap func(plan.Node) plan.Node
	}{{agg, spool}, {agg, nil}, {agg, nil}, {join, nil}, {join, view}, {join, view}} {
		root := bindQuery(t, cat, job.src)
		if job.wrap != nil {
			root = job.wrap(root)
		}
		keys := signer.Physical(root)
		res, err := (&exec.Executor{Catalog: cat, Views: store, Cache: cache, SigMap: keys, Vectorized: true}).Run(root)
		if err != nil {
			t.Fatal(err)
		}
		hits += res.CacheHits
		var order []plan.Node
		var post func(n plan.Node)
		post = func(n plan.Node) {
			var buf [2]plan.Node
			for _, c := range plan.Inputs(n, &buf) {
				post(c)
			}
			order = append(order, n)
		}
		post(root)
		if len(res.Stats) != len(order) {
			t.Fatalf("job %d: %d stats for %d nodes", i, len(res.Stats), len(order))
		}
		for k, st := range res.Stats {
			if st.Node != order[k] {
				t.Errorf("job %d (%d hits): stat %d (%s) points at %p, not its plan's %s at %p", i, res.CacheHits, k, st.Node.OpName(), st.Node, order[k].OpName(), order[k])
			}
		}
		for n, key := range keys {
			if e, ok := cache.Get(key); ok && len(e.Stats) != plan.CountNodes(n) {
				t.Errorf("job %d: the entry for %s holds %d stats for %d nodes", i, n.OpName(), len(e.Stats), plan.CountNodes(n))
			}
		}
	}
	if hits < 5 {
		t.Fatalf("only %d result-cache hits", hits)
	}
}

// TestTotalsAreFoldsOfNodeStats: a run's totals are folds of its NodeStats —
// TotalWork Σ Work, TotalRead Σ Read, InputBytes Σ Read over Scans, SpoolWork
// Σ Work over Spools — and each stat's Read is what its operator read: a Scan
// or a ViewScan what it returned, a Join both inputs, an Aggregate its input,
// every other operator nothing. Over the corpus on both arms, each query runs
// cold, then replayed from the warm result cache (the same totals), then under
// a Spool, then read back through a ViewScan.
func TestTotalsAreFoldsOfNodeStats(t *testing.T) {
	cat := adversarialCatalog(t, fixtures.RetailConfig{Customers: 400, Parts: 50, Sales: 1025, Seed: 42})
	signer := &signature.Signer{EngineVersion: "fold"}
	queries := append(append([]string{}, vecEquivalenceQueries...), adversarialQueries...)
	var hits, joins, aggs, spools, views int
	for _, vectorized := range []bool{false, true} {
		for qi, src := range queries {
			cache, store := exec.NewCache(), &fakeStore{views: map[signature.Sig]*fakeView{}}
			sig := fmt.Sprintf("q%d", qi)
			wraps := []func(plan.Node) plan.Node{
				nil, nil,
				func(n plan.Node) plan.Node { return &plan.Spool{Child: n, StrictSig: sig, Path: "views/" + sig} },
				func(n plan.Node) plan.Node { return &plan.ViewScan{StrictSig: sig, Out: n.Schema(), Fallback: n} },
			}
			var cold *exec.RunResult
			for job, wrap := range wraps {
				what := fmt.Sprintf("vectorized=%v job %d: %s", vectorized, job, src)
				root := bindQuery(t, cat, src)
				if wrap != nil {
					root = wrap(root)
				}
				ex := &exec.Executor{Catalog: cat, Views: store, Cache: cache, SigMap: signer.Physical(root), Vectorized: vectorized}
				res, err := ex.Run(root)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				byNode := make(map[plan.Node]exec.NodeStat, len(res.Stats))
				for _, st := range res.Stats {
					byNode[st.Node] = st
				}
				var work, spoolWork float64
				var read, input int64
				for _, st := range res.Stats {
					work += st.Work
					read += st.Read
					want := int64(0)
					switch x := st.Node.(type) {
					case *plan.Scan:
						input += st.Read
						want = st.BytesOut
					case *plan.ViewScan:
						want = st.BytesOut
						views++
					case *plan.Join:
						want = byNode[x.L].BytesOut + byNode[x.R].BytesOut
						joins++
					case *plan.Aggregate:
						want = byNode[x.Child].BytesOut
						aggs++
					case *plan.Spool:
						spoolWork += st.Work
						spools++
					}
					if st.Read != want {
						t.Errorf("%s: %s read %d, want %d", what, st.Node.OpName(), st.Read, want)
					}
				}
				if res.TotalWork != work || res.TotalRead != read || res.InputBytes != input || res.SpoolWork != spoolWork {
					t.Fatalf("%s: totals work=%v read=%d input=%d spool=%v, the stats fold to %v, %d, %d, %v",
						what, res.TotalWork, res.TotalRead, res.InputBytes, res.SpoolWork, work, read, input, spoolWork)
				}
				switch job {
				case 0:
					cold = res
				case 1:
					hits += res.CacheHits
					if res.TotalWork != cold.TotalWork || res.TotalRead != cold.TotalRead || res.InputBytes != cold.InputBytes || res.SpoolWork != cold.SpoolWork {
						t.Errorf("%s: replayed totals %v/%d/%d/%v, cold %v/%d/%d/%v", what,
							res.TotalWork, res.TotalRead, res.InputBytes, res.SpoolWork, cold.TotalWork, cold.TotalRead, cold.InputBytes, cold.SpoolWork)
					}
				}
			}
		}
	}
	t.Logf("%d replays hit the cache; stats of %d joins, %d aggregates, %d spools, %d view scans", hits, joins, aggs, spools, views)
	if hits < len(queries) || joins == 0 || aggs == 0 || spools < 2*len(queries) || views < 2*len(queries) {
		t.Fatalf("vacuous: %d hits, %d joins, %d aggregates, %d spools, %d view scans over %d queries", hits, joins, aggs, spools, views, len(queries))
	}
}

// TestCacheConcurrentAccess hammers one shared result cache from many
// goroutines executing overlapping plans — the shape of concurrent job
// submission. Run under -race.
func TestCacheConcurrentAccess(t *testing.T) {
	cat, err := fixtures.Retail(fixtures.RetailConfig{Customers: 500, Parts: 30, Sales: 4000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cache := exec.NewCache()
	signer := &signature.Signer{EngineVersion: "cache-test"}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	fps := make([]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every goroutine runs the same overlapping query; all of them
			// race to populate and read the shared cache.
			q, err := sqlparser.ParseQuery(`SELECT CustomerId, SUM(Price) AS s FROM Sales WHERE Quantity > 1 GROUP BY CustomerId`)
			if err != nil {
				errs <- err
				return
			}
			b := &plan.Binder{Catalog: cat}
			n, err := b.BindQuery(q)
			if err != nil {
				errs <- err
				return
			}
			ex := &exec.Executor{Catalog: cat, Cache: cache, SigMap: signer.Physical(n)}
			res, err := ex.Run(n)
			if err != nil {
				errs <- err
				return
			}
			fps[g] = res.Table.Fingerprint()
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := 1; g < goroutines; g++ {
		if fps[g] != fps[0] {
			t.Fatalf("goroutine %d saw a different result", g)
		}
	}
	if cache.Len() == 0 {
		t.Error("cache should have been populated")
	}
}

// TestStoredStatsAreNeverWritten: a stored entry shares the producing run's
// stats rather than copying them, which is sound only because nothing writes a
// recorded NodeStat. Each entry's stats are copied as Put stores them. After
// the corpus has run on one shared cache, on both arms, and again after
// goroutines have replayed every query from it at once (run under -race),
// every entry's stats still equal that copy, and every replay answers what
// its cold run answered.
func TestStoredStatsAreNeverWritten(t *testing.T) {
	cat := adversarialCatalog(t, fixtures.RetailConfig{Customers: 400, Parts: 50, Sales: 1025, Seed: 42})
	signer := &signature.Signer{EngineVersion: "shared-stats"}
	cache := exec.NewCache()
	var mu sync.Mutex
	stored := map[signature.Sig][]exec.NodeStat{}
	exec.ObserveStores(cache, func(sig signature.Sig, e *exec.CacheEntry) {
		mu.Lock()
		defer mu.Unlock()
		stored[sig] = slices.Clone(e.Stats)
	})
	requireUnwritten := func(when string) {
		mu.Lock()
		snapshot := maps.Clone(stored)
		mu.Unlock()
		for sig, want := range snapshot {
			if e, ok := cache.Get(sig); ok && !slices.Equal(e.Stats, want) {
				t.Fatalf("%s: the stats stored under %s changed from %+v to %+v", when, sig.Short(), want, e.Stats)
			}
		}
	}
	type job struct {
		root       plan.Node
		sigs       map[plan.Node]signature.Sig
		vectorized bool
		answer     string
	}
	run := func(j job) (*exec.RunResult, error) {
		return (&exec.Executor{Catalog: cat, Cache: cache, SigMap: j.sigs, Vectorized: j.vectorized}).Run(j.root)
	}
	var jobs []job
	for _, vectorized := range []bool{false, true} {
		for _, src := range append(append([]string{}, vecEquivalenceQueries...), adversarialQueries...) {
			root := bindQuery(t, cat, src)
			j := job{root: root, sigs: signer.Physical(root), vectorized: vectorized}
			res, err := run(j)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			j.answer = res.Table.Fingerprint()
			jobs = append(jobs, j)
		}
	}
	requireUnwritten("after the cold runs")
	if len(stored) < len(jobs)/2 {
		t.Fatalf("vacuous: %d entries stored over %d runs", len(stored), len(jobs))
	}

	const goroutines = 4
	var wg sync.WaitGroup
	hits := make([]int, goroutines)
	errs := make(chan error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(i+g*len(jobs)/goroutines)%len(jobs)]
				res, err := run(j)
				if err == nil && res.Table.Fingerprint() != j.answer {
					err = fmt.Errorf("a replay of %s answered another table", j.root)
				}
				if err != nil {
					errs <- err
					return
				}
				hits[g] += res.CacheHits
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	requireUnwritten("after the replays")
	for g, h := range hits {
		if h < len(jobs)/2 {
			t.Fatalf("goroutine %d: %d hits over %d replays", g, h, len(jobs))
		}
	}
}

func TestScaleFactorAccounting(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	q, _ := sqlparser.ParseQuery(`SELECT * FROM Customer WHERE MktSegment = 'Asia'`)
	run := func() *exec.RunResult {
		b := &plan.Binder{Catalog: cat}
		n, _ := b.BindQuery(q)
		ex := &exec.Executor{Catalog: cat}
		res, err := ex.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := run()
	cat.SetScaleFactor("Customer", 1000)
	big := run()
	if big.Table.NumRows() != small.Table.NumRows() {
		t.Error("scale factor must not change actual rows")
	}
	ratio := big.TotalWork / small.TotalWork
	if ratio < 500 || ratio > 2000 {
		t.Errorf("work ratio = %g, want ~1000", ratio)
	}
	if big.InputBytes != small.InputBytes*1000 {
		t.Errorf("input bytes: %d vs %d", big.InputBytes, small.InputBytes)
	}
}

func TestExchangeReadAccounting(t *testing.T) {
	res, _ := runQuery(t, `SELECT MktSegment, COUNT(*) AS n FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id GROUP BY MktSegment`)
	if res.TotalRead <= res.InputBytes {
		t.Error("joins/aggregates must add intermediate exchange reads")
	}
}

func TestMergeJoinDuplicateKeys(t *testing.T) {
	// Many sales share CustomerId; merge join must emit the full cross
	// product per equal-key run.
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	q, _ := sqlparser.ParseQuery(`SELECT SaleId FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id`)
	b := &plan.Binder{Catalog: cat}
	n, _ := b.BindQuery(q)
	ex := &exec.Executor{Catalog: cat, Compiled: joinAlgo(plan.JoinMerge)}
	res, err := ex.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 5000 {
		t.Errorf("rows = %d, want 5000 (every sale has a customer)", res.Table.NumRows())
	}
}

type fakeView struct {
	t    *data.Table
	mult float64
}

type fakeStore struct {
	views map[signature.Sig]*fakeView
}

func (f *fakeStore) Fetch(s signature.Sig) (*data.Table, float64, bool) {
	v, ok := f.views[s]
	if !ok {
		return nil, 0, false
	}
	return v.t, v.mult, true
}

func (f *fakeStore) Materialize(s signature.Sig, path, vc string, t *data.Table, mult float64) error {
	f.views[s] = &fakeView{t: t, mult: mult}
	return nil
}

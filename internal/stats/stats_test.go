package stats_test

import (
	"sync"
	"testing"
	"testing/quick"

	"cloudviews/internal/data"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/stats"
)

func bindPlan(t *testing.T, src string) plan.Node {
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
	return n
}

func TestEstimatorOverestimationBias(t *testing.T) {
	// The estimator must OVERestimate a selective filter — that bias is what
	// produces the paper's over-partitioning effect.
	n := bindPlan(t, `SELECT * FROM Sales WHERE Quantity > 9`) // ~10% selective in reality
	est := stats.NewEstimator()
	_, root := est.EstimatePlan(n)
	if root.Rows < 0.3*5000 {
		t.Errorf("estimate %g is not generous for a selective filter", root.Rows)
	}
}

func TestEstimatorScanUsesBaseRows(t *testing.T) {
	n := bindPlan(t, `SELECT * FROM Customer`)
	est := stats.NewEstimator()
	_, root := est.EstimatePlan(n)
	if root.Rows != 200 {
		t.Errorf("scan estimate = %g, want 200", root.Rows)
	}
}

func TestEstimatorViewScanExact(t *testing.T) {
	vs := &plan.ViewScan{Rows: 1234, Bytes: 5678, Out: data.Schema{{Name: "a", Kind: data.KindInt}}}
	est := stats.NewEstimator()
	got := est.EstimateNode(vs, nil)
	if got.Rows != 1234 || got.Bytes != 5678 {
		t.Errorf("view estimate = %+v, want exact stats", got)
	}
}

func TestEstimatorJoinAndAggregate(t *testing.T) {
	n := bindPlan(t, `SELECT MktSegment, COUNT(*) AS n FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id GROUP BY MktSegment`)
	est := stats.NewEstimator()
	memo, root := est.EstimatePlan(n)
	if root.Rows <= 0 {
		t.Error("aggregate estimate must be positive")
	}
	var joinEst, aggEst float64
	plan.Walk(n, func(m plan.Node) {
		switch m.(type) {
		case *plan.Join:
			joinEst = memo[m].Rows
		case *plan.Aggregate:
			aggEst = memo[m].Rows
		}
	})
	if joinEst < 5000 {
		t.Errorf("join estimate %g should exceed the bigger input", joinEst)
	}
	if aggEst >= joinEst {
		t.Error("aggregation must reduce the estimate")
	}
}

func TestEstimatorGlobalAggregate(t *testing.T) {
	n := bindPlan(t, `SELECT COUNT(*) AS n FROM Sales GROUP BY Quantity HAVING n > 0`)
	est := stats.NewEstimator()
	_, root := est.EstimatePlan(n)
	if root.Rows <= 0 {
		t.Error("estimate must be positive")
	}
}

func TestHistoryRecordLookup(t *testing.T) {
	h := stats.NewHistory()
	if _, ok := h.LookupMeans("none"); ok {
		t.Error("unknown signature must miss")
	}
	for i := 1; i <= 4; i++ {
		h.Record("sig", stats.Observation{Rows: int64(i * 100), Bytes: int64(i * 1000), Work: float64(i)})
	}
	sum, ok := h.LookupMeans("sig")
	if !ok {
		t.Fatal("lookup failed")
	}
	if want := (stats.Summary{Count: 4, AvgRows: 250, AvgBytes: 2500, AvgWork: 2.5}); sum != want {
		t.Errorf("summary = %+v, want %+v", sum, want)
	}
}

// Property: averages are order-independent.
func TestHistoryOrderIndependence(t *testing.T) {
	f := func(xs []uint16) bool {
		if len(xs) == 0 {
			return true
		}
		h1, h2 := stats.NewHistory(), stats.NewHistory()
		for _, x := range xs {
			h1.Record("s", stats.Observation{Work: float64(x)})
		}
		for i := len(xs) - 1; i >= 0; i-- {
			h2.Record("s", stats.Observation{Work: float64(xs[i])})
		}
		a, _ := h1.LookupMeans("s")
		b, _ := h2.LookupMeans("s")
		return a.AvgWork == b.AvgWork && a.Count == b.Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestHistoryConcurrentRecordAndLookup: compiles read the means while
// finishing jobs record into the same signatures (run under -race); no
// observation may be lost.
func TestHistoryConcurrentRecordAndLookup(t *testing.T) {
	h := stats.NewHistory()
	sigs := []signature.Sig{"a", "b", "c"}
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Record(sigs[i%len(sigs)], stats.Observation{Rows: 10, Bytes: 100, Work: 2})
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if sum, ok := h.LookupMeans(sigs[i%len(sigs)]); ok && (sum.AvgRows != 10 || sum.AvgWork != 2) {
					t.Errorf("means of identical observations = %+v", sum)
					return
				}
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, sig := range sigs {
		sum, _ := h.LookupMeans(sig)
		total += sum.Count
	}
	if total != writers*perWriter {
		t.Errorf("recorded %d observations, want %d", total, writers*perWriter)
	}
}

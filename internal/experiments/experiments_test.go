package experiments_test

import (
	"errors"
	"strings"
	"testing"

	"cloudviews/internal/experiments"
	"cloudviews/internal/storage"
)

// TestProductionShape asserts the Table 1 directions at a reduced scale: all
// efficiency metrics must improve, with the magnitudes in the paper's
// neighbourhood (generous bands — the simulator is not the authors' testbed).
func TestProductionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("production A/B run is expensive")
	}
	cfg := experiments.DefaultProduction().Scale(0.12)
	res, err := experiments.RunProduction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Table1

	if tb.Jobs < 500 {
		t.Errorf("jobs = %d, too few for a meaningful window", tb.Jobs)
	}
	if tb.ViewsCreated == 0 || tb.ViewsUsed == 0 {
		t.Fatalf("no reuse happened: created=%d used=%d", tb.ViewsCreated, tb.ViewsUsed)
	}
	if tb.ViewsUsed <= tb.ViewsCreated {
		t.Errorf("views must be reused more than created: %d vs %d", tb.ViewsUsed, tb.ViewsCreated)
	}

	checks := []struct {
		name   string
		got    float64
		lo, hi float64
	}{
		{"latency", tb.LatencyImpPct, 10, 70},
		{"processing", tb.ProcessingImpPct, 20, 65},
		{"bonus", tb.BonusImpPct, 10, 75},
		{"containers", tb.ContainersImpPct, 20, 70},
		{"input", tb.InputImpPct, 20, 70},
		{"dataRead", tb.DataReadImpPct, 20, 70},
		{"queue", tb.QueueImpPct, 0, 80},
	}
	for _, c := range checks {
		if c.got < c.lo || c.got > c.hi {
			t.Errorf("%s improvement = %.2f%%, want within [%g, %g]", c.name, c.got, c.lo, c.hi)
		}
	}
	// The paper's ordering: processing-time improvement exceeds latency
	// improvement is NOT guaranteed day by day, but reuse must never make
	// cumulative processing worse.
	if tb.ProcessingImpPct <= 0 {
		t.Error("processing must improve")
	}

	// Figure 6a shape: cumulative views built and reused are non-decreasing
	// and reused outgrows built after the ramp.
	var built, reused int
	for _, d := range res.Days {
		if d.CV.ViewsBuilt < 0 || d.CV.ViewsReused < 0 {
			t.Fatal("negative daily counters")
		}
		built += d.CV.ViewsBuilt
		reused += d.CV.ViewsReused
	}
	if reused <= built {
		t.Errorf("figure 6a: reuse (%d) should outgrow builds (%d)", reused, built)
	}

	// Figure 6b/6c shape: baseline cumulative latency/processing dominate
	// the CloudViews arm at the end of the window.
	last := res.Days[len(res.Days)-1]
	_ = last
	var bl, cl, bp, cp float64
	for _, d := range res.Days {
		bl += d.Base.LatencySec
		cl += d.CV.LatencySec
		bp += d.Base.ProcessingSec
		cp += d.CV.ProcessingSec
	}
	if cl >= bl || cp >= bp {
		t.Errorf("cumulative series must favor CloudViews: lat %f vs %f, proc %f vs %f", cl, bl, cp, bp)
	}
}

func TestFigure2Shape(t *testing.T) {
	res, err := experiments.RunFigure2(3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("clusters = %d, want 5", len(res))
	}
	// Cluster1 (Asimov-like) must share most heavily.
	c1 := res[0]
	if c1.Cluster != "Cluster1" {
		t.Fatalf("first cluster = %s", c1.Cluster)
	}
	for _, r := range res[1:] {
		if c1.Top10Pct < r.Top10Pct {
			t.Errorf("Cluster1 top-10%% (%d) should dominate %s (%d)", c1.Top10Pct, r.Cluster, r.Top10Pct)
		}
	}
	// More than half the datasets have multiple distinct consumers.
	for _, r := range res {
		if len(r.CDF) == 0 {
			t.Fatalf("%s has empty CDF", r.Cluster)
		}
		median := r.CDF[len(r.CDF)/2].Consumers
		if median < 2 {
			t.Errorf("%s: median consumers = %d, want >= 2 (paper: more than half shared)", r.Cluster, median)
		}
		// CDF must be sorted ascending.
		for i := 1; i < len(r.CDF); i++ {
			if r.CDF[i].Consumers < r.CDF[i-1].Consumers {
				t.Fatalf("%s: CDF not monotone", r.Cluster)
			}
			if r.CDF[i].Fraction <= r.CDF[i-1].Fraction {
				t.Fatalf("%s: CDF fractions not increasing", r.Cluster)
			}
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	res, err := experiments.RunFigure3(21, 0.2) // three weekly buckets
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	for _, p := range res.Points {
		if p.RepeatedPct < 55 || p.RepeatedPct > 99 {
			t.Errorf("repeated%% = %.1f, want stable high (paper ~75%%)", p.RepeatedPct)
		}
		if p.AvgRepeatFrequency < 2 || p.AvgRepeatFrequency > 25 {
			t.Errorf("avg repeat frequency = %.2f, want moderate (paper ~5)", p.AvgRepeatFrequency)
		}
		if p.Instances == 0 || p.Distinct == 0 {
			t.Error("empty bucket")
		}
	}
	// Stability: the series must not swing wildly week over week.
	for i := 1; i < len(res.Points); i++ {
		d := res.Points[i].RepeatedPct - res.Points[i-1].RepeatedPct
		if d < -15 || d > 15 {
			t.Errorf("repeated%% swings too much: %.1f -> %.1f", res.Points[i-1].RepeatedPct, res.Points[i].RepeatedPct)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	res, err := experiments.RunFigure8(3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("no generalized-reuse groups found")
	}
	// Top group must aggregate multiple syntactically different
	// subexpressions over the same inputs with a healthy total frequency.
	top := res.Groups[0]
	if top.Frequency < 10 {
		t.Errorf("top group frequency = %d, want 10s-100s (paper)", top.Frequency)
	}
	foundMultiSubexpr := false
	for _, g := range res.Groups {
		if g.DistinctSubexprs > 1 {
			foundMultiSubexpr = true
		}
		if len(g.Datasets) < 2 {
			t.Errorf("join group with <2 inputs: %v", g.Datasets)
		}
	}
	if !foundMultiSubexpr {
		t.Error("expected at least one input set joined by multiple distinct subexpressions")
	}
}

func TestFigure9Shape(t *testing.T) {
	res, err := experiments.RunFigure9(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) == 0 {
		t.Fatal("no concurrent joins observed")
	}
	total := 0
	for _, m := range res.Histogram {
		for _, n := range m {
			total += n
		}
	}
	if total != len(res.Stats) {
		t.Errorf("histogram total %d != stats %d", total, len(res.Stats))
	}
	for _, s := range res.Stats {
		if s.Concurrency < 2 {
			t.Errorf("reported non-concurrent join: %+v", s)
		}
		switch s.Algo {
		case "Hash Join", "Merge Join", "Loop Join":
		default:
			t.Errorf("unknown algorithm %q", s.Algo)
		}
	}
	if len(res.Outliers) == 0 || res.Outliers[0] < res.Stats[len(res.Stats)-1].Concurrency {
		t.Error("outliers must be the top concurrency levels")
	}
}

func TestScaleBounds(t *testing.T) {
	cfg := experiments.DefaultProduction().Scale(0.01)
	if cfg.Profile.Pipelines < 10 || cfg.Days < 6 {
		t.Errorf("scale must respect minimums: %+v", cfg)
	}
	full := experiments.DefaultProduction()
	if full.Profile.Pipelines != 619 || full.Profile.VCs != 21 || full.Profile.RuntimeVersions != 12 {
		t.Errorf("deployment profile drifted from the paper: %+v", full.Profile)
	}
	if full.Days != 59 {
		t.Errorf("window = %d days, want 59 (two months)", full.Days)
	}
}

func TestConcurrentOpportunityShape(t *testing.T) {
	res, err := experiments.RunConcurrentOpportunity(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Sharings) == 0 {
		t.Fatal("no pipelined-sharing opportunity found on a burst-heavy day")
	}
	if res.Report.TotalSaved <= 0 || res.Report.TotalWork <= 0 {
		t.Errorf("totals: saved=%g work=%g", res.Report.TotalSaved, res.Report.TotalWork)
	}
	if res.Report.TotalSaved >= res.Report.TotalWork {
		t.Error("savings cannot exceed the total work")
	}
	for i := 1; i < len(res.Report.Sharings); i++ {
		if res.Report.Sharings[i].SavedWork > res.Report.Sharings[i-1].SavedWork {
			t.Fatal("sharings must be sorted by savings")
		}
	}
}

// closeFailingStore is an in-memory view store whose Close fails, the way a
// durable engine's does when a WAL write was lost during the run.
type closeFailingStore struct{ *storage.Store }

func (closeFailingStore) Close() error { return errors.New("wal: write failed") }

// TestViewStoreCloseErrorFailsTheRun: the view store's Close is where a
// durable engine reports a failed write, so an arm whose store fails to close
// fails the experiment instead of reporting numbers that were never persisted.
func TestViewStoreCloseErrorFailsTheRun(t *testing.T) {
	cfg := experiments.DefaultProduction().Scale(0.05)
	cfg.Days = 2
	cfg.StoreFactory = func(arm string) (storage.Engine, error) {
		return closeFailingStore{storage.NewStore(nil)}, nil
	}
	_, err := experiments.RunProduction(cfg)
	if err == nil || !strings.Contains(err.Error(), "baseline arm: closing view store: wal: write failed") {
		t.Fatalf("RunProduction = %v, want the baseline arm's close error", err)
	}
}

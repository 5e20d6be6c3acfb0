package cloudviews_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudviews"
)

func demoSystem(t *testing.T) *cloudviews.System {
	t.Helper()
	return demoSystemWith(t, cloudviews.Config{ClusterName: "api-test", Capacity: 100})
}

// demoSystemWith builds cfg's system holding the demo Events dataset.
func demoSystemWith(t *testing.T, cfg cloudviews.Config) *cloudviews.System {
	t.Helper()
	sys, err := cloudviews.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schema := cloudviews.Schema{
		{Name: "Id", Kind: cloudviews.KindInt},
		{Name: "Region", Kind: cloudviews.KindString},
		{Name: "Value", Kind: cloudviews.KindFloat},
	}
	if err := sys.DefineDataset("Events", schema); err != nil {
		t.Fatal(err)
	}
	tb := &cloudviews.Table{Schema: schema}
	regions := []string{"us", "eu", "asia"}
	for i := 0; i < 300; i++ {
		tb.Append(cloudviews.Row{
			cloudviews.Int(int64(i)),
			cloudviews.String(regions[i%3]),
			cloudviews.Float(float64(i % 97)),
		})
	}
	if err := sys.PublishDataset("Events", tb); err != nil {
		t.Fatal(err)
	}
	sys.SetScaleFactor("Events", 10_000)
	return sys
}

func TestNewSystemRequiresName(t *testing.T) {
	if _, err := cloudviews.NewSystem(cloudviews.Config{}); err == nil {
		t.Error("expected error without ClusterName")
	}
}

func TestSubmitScriptBasics(t *testing.T) {
	sys := demoSystem(t)
	res, err := sys.SubmitScript(cloudviews.Job{
		VC:     "vc1",
		Script: `r = SELECT Region, COUNT(*) AS n FROM Events GROUP BY Region; OUTPUT r TO "out/r";`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.NumRows() != 3 {
		t.Errorf("rows = %d, want 3 regions", res.Output.NumRows())
	}
	if res.Work <= 0 || res.InputBytes <= 0 {
		t.Errorf("accounting missing: %+v", res)
	}
	if !strings.Contains(res.PlanText(), "Aggregate") {
		t.Errorf("plan text missing aggregate:\n%s", res.PlanText())
	}
	if res.ID == "" {
		t.Error("auto-assigned job ID missing")
	}
}

func TestSubmitScriptErrors(t *testing.T) {
	sys := demoSystem(t)
	if _, err := sys.SubmitScript(cloudviews.Job{VC: "v"}); err == nil {
		t.Error("empty script must fail")
	}
	if _, err := sys.SubmitScript(cloudviews.Job{VC: "v", Script: "garbage"}); err == nil {
		t.Error("unparsable script must fail")
	}
	if _, err := sys.SubmitScript(cloudviews.Job{VC: "v",
		Script: `r = SELECT Nope FROM Events; OUTPUT r TO "x";`}); err == nil {
		t.Error("bind error must surface")
	}
}

func TestEndToEndReuseThroughFacade(t *testing.T) {
	sys := demoSystem(t)
	sys.OnboardVC("vc1")
	script := func(agg string) string {
		return fmt.Sprintf(`p = SELECT * FROM Events WHERE Value > 40;
			r = SELECT Region, %s FROM p GROUP BY Region;
			OUTPUT r TO "out/%s";`, agg, agg[:3])
	}
	queries := []string{script("COUNT(*) AS n"), script("MAX(Value) AS m"), script("SUM(Value) AS s")}

	// Round 1: cold.
	for i, q := range queries {
		if _, err := sys.SubmitScript(cloudviews.Job{ID: fmt.Sprintf("r1-%d", i), VC: "vc1", Pipeline: "p", Script: q}); err != nil {
			t.Fatal(err)
		}
		sys.AdvanceClock(time.Minute)
	}
	if tags := sys.Analyze(time.Hour); tags == 0 {
		t.Fatal("analysis selected nothing")
	}
	// Round 2: build then reuse.
	var reused int
	for i, q := range queries {
		res, err := sys.SubmitScript(cloudviews.Job{ID: fmt.Sprintf("r2-%d", i), VC: "vc1", Pipeline: "p", Script: q})
		if err != nil {
			t.Fatal(err)
		}
		reused += res.ViewsReused
		sys.AdvanceClock(time.Minute)
	}
	if reused == 0 {
		t.Error("no reuse through the public API")
	}
	if sys.ViewCount() == 0 || sys.ViewStorageBytes("vc1") == 0 {
		t.Error("view accounting empty")
	}
}

// TestNondeterministicJobsAnswerPerJob: the result cache never hands one job
// the clock or the random draws of another. Two submissions of a script that
// stamps the ingest time, a minute apart, each answer their own submission
// time; jobs c and d, drawing RANDOM() a row, each answer what they answer on
// a system that ran no other job.
func TestNondeterministicJobsAnswerPerJob(t *testing.T) {
	sys := demoSystem(t)
	stamp := cloudviews.Job{VC: "vc1", Script: `q = PROCESS Events USING "StampIngestTime"; OUTPUT q TO "out/q";`}
	for i := 0; i < 2; i++ {
		if i > 0 {
			sys.AdvanceClock(time.Minute)
		}
		want := sys.Clock()
		res, err := sys.SubmitScript(stamp)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Output.Rows[0][3].AsTime(); !got.Equal(want) {
			t.Errorf("submission %d stamped %v, want its own time %v", i+1, got, want)
		}
	}
	random := func(sys *cloudviews.System, id string) string {
		res, err := sys.SubmitScript(cloudviews.Job{ID: id, VC: "vc1", Script: `q = SELECT Id, RANDOM() AS r FROM Events; OUTPUT q TO "out/r";`})
		if err != nil {
			t.Fatal(err)
		}
		return res.Output.Fingerprint()
	}
	c, d := random(sys, "c"), random(sys, "d")
	if c == d {
		t.Error("jobs c and d answered the same draws")
	}
	if alone := random(demoSystem(t), "d"); d != alone {
		t.Error("job d answered other draws after job c than alone")
	}
}

func TestOptOutJobNeverReuses(t *testing.T) {
	sys := demoSystem(t)
	sys.OnboardVC("vc1")
	q := `p = SELECT * FROM Events WHERE Value > 40;
		r = SELECT Region, COUNT(*) AS n FROM p GROUP BY Region;
		OUTPUT r TO "out/x";`
	for i := 0; i < 2; i++ {
		if _, err := sys.SubmitScript(cloudviews.Job{ID: fmt.Sprintf("a%d", i), VC: "vc1", Pipeline: "p", Script: q}); err != nil {
			t.Fatal(err)
		}
		sys.AdvanceClock(time.Minute)
	}
	sys.Analyze(time.Hour)
	// Builder run.
	if _, err := sys.SubmitScript(cloudviews.Job{ID: "builder", VC: "vc1", Pipeline: "p", Script: q}); err != nil {
		t.Fatal(err)
	}
	sys.AdvanceClock(time.Minute)
	res, err := sys.SubmitScript(cloudviews.Job{ID: "optout", VC: "vc1", Pipeline: "p", Script: q, OptOut: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewsReused != 0 || res.ViewsBuilt != 0 {
		t.Errorf("opted-out job participated in reuse: %+v", res)
	}
}

func TestRunDayThroughFacade(t *testing.T) {
	sys := demoSystem(t)
	var jobs []cloudviews.Job
	for i := 0; i < 5; i++ {
		jobs = append(jobs, cloudviews.Job{
			ID: fmt.Sprintf("d0-%d", i), VC: "vc1", Pipeline: "p",
			Script: `r = SELECT Region, COUNT(*) AS n FROM Events GROUP BY Region; OUTPUT r TO "out/r";`,
			Submit: cloudviews.Epoch.Add(time.Duration(i) * time.Hour),
		})
	}
	m, err := sys.RunDay(0, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs != 5 || m.LatencySec <= 0 {
		t.Errorf("day metrics: %+v", m)
	}
}

// TestSystemHasOneClock: the System reads and advances the engine's clock,
// the one views seal and expire against. Advancing it past the view TTL
// expires the views at once, and RunDay(d) leaves it at midnight of day d+1.
func TestSystemHasOneClock(t *testing.T) {
	sys := demoSystemWith(t, cloudviews.Config{ClusterName: "clock-test", Capacity: 100})
	sys.Engine().Store.SetTTL(time.Hour)
	sys.OnboardVC("vc1")
	queries := []string{
		`p = SELECT * FROM Events WHERE Value > 40; r = SELECT Region, COUNT(*) AS n FROM p GROUP BY Region; OUTPUT r TO "out/a";`,
		`p = SELECT * FROM Events WHERE Value < 20; r = SELECT Region, SUM(Value) AS s FROM p GROUP BY Region; OUTPUT r TO "out/b";`,
	}
	submit := func(round string) (built, reused int) {
		t.Helper()
		for i, q := range queries {
			res, err := sys.SubmitScript(cloudviews.Job{ID: fmt.Sprintf("%s-%d", round, i), VC: "vc1", Pipeline: "p", Script: q})
			if err != nil {
				t.Fatal(err)
			}
			built += res.ViewsBuilt
			reused += res.ViewsReused
			sys.AdvanceClock(time.Minute)
		}
		return built, reused
	}
	submit("seen-1")
	submit("seen-2")
	sys.Analyze(time.Hour)
	built, _ := submit("build")
	if built < 2 {
		t.Fatalf("built %d views, want one or more per query", built)
	}
	sys.AdvanceClock(10 * time.Minute)
	if _, reused := submit("reuse"); reused < 2 {
		t.Fatalf("reused %d views, want the sealed views of both queries", reused)
	}
	if n, b := sys.ViewCount(), sys.ViewStorageBytes("vc1"); n != built || b == 0 {
		t.Fatalf("before the TTL: %d views, %d bytes; want %d views holding bytes", n, b, built)
	}

	sys.AdvanceClock(3 * time.Hour)
	if n, b := sys.ViewCount(), sys.ViewStorageBytes("vc1"); n != 0 || b != 0 {
		t.Errorf("3h past a 1h TTL: %d views, %d bytes; want 0 and 0", n, b)
	}

	const day = 1
	if _, err := sys.RunDay(day, []cloudviews.Job{{
		ID: "d1", VC: "vc1", Pipeline: "p", Script: queries[0],
		Submit: cloudviews.Epoch.AddDate(0, 0, day).Add(time.Hour),
	}}); err != nil {
		t.Fatal(err)
	}
	if got, want := sys.Clock(), cloudviews.Epoch.AddDate(0, 0, day+1); !got.Equal(want) {
		t.Errorf("after RunDay(%d) the clock reads %s, want %s", day, got, want)
	}

	// Concurrent advances each land.
	start := sys.Clock()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sys.AdvanceClock(time.Second)
			}
		}()
	}
	wg.Wait()
	if got, want := sys.Clock(), start.Add(400*time.Second); !got.Equal(want) {
		t.Errorf("400 concurrent 1s advances moved the clock to %s, want %s", got, want)
	}
}

func TestOffboardThroughFacade(t *testing.T) {
	sys := demoSystem(t)
	sys.OnboardVC("vc1")
	q := `p = SELECT * FROM Events WHERE Value > 40;
		r = SELECT Region, COUNT(*) AS n FROM p GROUP BY Region;
		OUTPUT r TO "out/x";`
	for i := 0; i < 3; i++ {
		if _, err := sys.SubmitScript(cloudviews.Job{ID: fmt.Sprintf("x%d", i), VC: "vc1", Pipeline: "p", Script: q}); err != nil {
			t.Fatal(err)
		}
		sys.AdvanceClock(time.Minute)
	}
	sys.Analyze(time.Hour)
	if _, err := sys.SubmitScript(cloudviews.Job{ID: "y", VC: "vc1", Pipeline: "p", Script: q}); err != nil {
		t.Fatal(err)
	}
	sys.OffboardVC("vc1")
	if sys.ViewStorageBytes("vc1") != 0 {
		t.Error("offboarding must purge views")
	}
}

func TestParamsThroughFacade(t *testing.T) {
	sys := demoSystem(t)
	res, err := sys.SubmitScript(cloudviews.Job{
		VC:     "vc1",
		Script: `r = SELECT Region, COUNT(*) AS n FROM Events WHERE Value > @min GROUP BY Region; OUTPUT r TO "o";`,
		Params: map[string]cloudviews.Value{"min": cloudviews.Float(50)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.NumRows() == 0 {
		t.Error("parameterized query returned nothing")
	}
	// Missing param surfaces as a bind error.
	if _, err := sys.SubmitScript(cloudviews.Job{
		VC:     "vc1",
		Script: `r = SELECT Region FROM Events WHERE Value > @missing; OUTPUT r TO "o";`,
	}); err == nil {
		t.Error("unbound parameter must fail")
	}
}

// TestRepoMetricsWiredAtSystemLayer verifies that NewSystem registers the
// workload repository's metric families (the wiring lives here, not in
// core.NewEngine, so purely simulated-time tools keep their exports stable)
// and that the wall timer makes the query/merge histograms observe.
func TestRepoMetricsWiredAtSystemLayer(t *testing.T) {
	sys := demoSystem(t)
	if _, err := sys.SubmitScript(cloudviews.Job{
		VC:     "vc1",
		Script: `r = SELECT Region FROM Events; OUTPUT r TO "out/m";`,
	}); err != nil {
		t.Fatal(err)
	}
	sys.Engine().Repo.GroupByRecurring(cloudviews.Epoch, cloudviews.Epoch.AddDate(0, 0, 1))
	out := sys.Metrics().ExportString()
	for _, fam := range []string{
		"cloudviews_repo_buckets 1",
		"cloudviews_repo_jobs_total 1",
		"cloudviews_repo_bucket_records_max 1",
		"cloudviews_repo_subexprs_total",
		"cloudviews_repo_queries_total 1",
		"cloudviews_repo_merged_buckets_total 1",
		"cloudviews_repo_merge_seconds_count 1",
		"cloudviews_repo_query_seconds_count 1",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("metrics export missing %q", fam)
		}
	}
	// Observability off: the repository must run metric-free (nil-safe).
	off, err := cloudviews.NewSystem(cloudviews.Config{ClusterName: "off", DisableObservability: true})
	if err != nil {
		t.Fatal(err)
	}
	off.Engine().Repo.GroupByRecurring(cloudviews.Epoch, cloudviews.Epoch.AddDate(0, 0, 1))
	if off.Metrics() != nil {
		t.Error("metrics registry must be nil when observability is disabled")
	}
}

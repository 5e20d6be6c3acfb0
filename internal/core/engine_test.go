package core_test

import (
	"testing"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/core"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/workload"
)

// smallProfile is a fast test-sized cluster.
func smallProfile() workload.ClusterProfile {
	p := workload.DefaultProfile("TestC")
	p.Pipelines = 12
	p.RawStreams = 4
	p.CookedDatasets = 5
	p.DimTables = 2
	p.PrefixPool = 8
	p.RowsPerRawDay = 150
	p.VCs = 2
	return p
}

func newSystem(t *testing.T) (*core.Engine, *workload.Generator) {
	t.Helper()
	cat := catalog.New()
	gen := workload.NewGenerator(cat, smallProfile())
	if err := gen.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	var vcCfgs []cluster.VCConfig
	for _, vc := range gen.VCNames() {
		vcCfgs = append(vcCfgs, cluster.VCConfig{Name: vc, Tokens: 60})
	}
	eng := core.NewEngine(core.Config{
		ClusterName: "TestC",
		Catalog:     cat,
		ClusterCfg:  cluster.Config{Capacity: 400, VCs: vcCfgs},
		Selection:   analysis.SelectionConfig{ScheduleAware: true, UseBigSubs: true},
	})
	return eng, gen
}

func TestRunDayBaseline(t *testing.T) {
	eng, gen := newSystem(t)
	jobs := gen.JobsForDay(0)
	if len(jobs) == 0 {
		t.Fatal("no jobs generated")
	}
	m, err := eng.RunDay(0, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs != len(jobs) {
		t.Errorf("jobs = %d, want %d", m.Jobs, len(jobs))
	}
	if m.LatencySec <= 0 || m.ProcessingSec <= 0 || m.Containers <= 0 {
		t.Errorf("metrics not populated: %+v", m)
	}
	if m.ViewsBuilt != 0 || m.ViewsReused != 0 {
		t.Errorf("no VC onboarded: views built=%d reused=%d", m.ViewsBuilt, m.ViewsReused)
	}
	if eng.Repo.Len() != len(jobs) {
		t.Errorf("repo records = %d", eng.Repo.Len())
	}
	if eng.Repo.SubexprCount() == 0 {
		t.Error("no subexpressions recorded")
	}
}

func TestCookingPublishesDatasets(t *testing.T) {
	eng, gen := newSystem(t)
	before := eng.Catalog.VersionCount("TestC_Cooked00")
	if _, err := eng.RunDay(0, gen.JobsForDay(0)); err != nil {
		t.Fatal(err)
	}
	after := eng.Catalog.VersionCount("TestC_Cooked00")
	if after <= before {
		t.Errorf("cooking job did not publish a new version: %d -> %d", before, after)
	}
}

func TestFeedbackLoopProducesReuse(t *testing.T) {
	eng, gen := newSystem(t)
	for _, vc := range gen.VCNames() {
		eng.OnboardVC(vc)
	}
	var totalBuilt, totalReused int
	for day := 0; day < 3; day++ {
		if day > 0 {
			if err := gen.AdvanceDay(day); err != nil {
				t.Fatal(err)
			}
		}
		m, err := eng.RunDay(day, gen.JobsForDay(day))
		if err != nil {
			t.Fatal(err)
		}
		totalBuilt += m.ViewsBuilt
		totalReused += m.ViewsReused
		// Nightly analysis over the trailing window.
		from := fixtures.Epoch.AddDate(0, 0, day-7)
		to := fixtures.Epoch.AddDate(0, 0, day+1)
		tags, _ := eng.RunAnalysis(from, to)
		if day == 0 && tags == 0 {
			t.Error("analysis selected nothing on a workload with built-in overlap")
		}
	}
	if totalBuilt == 0 {
		t.Error("no views built across 3 days with feedback loop")
	}
	if totalReused == 0 {
		t.Error("no views reused across 3 days with feedback loop")
	}
	if totalReused <= totalBuilt {
		t.Errorf("expected more reuses (%d) than builds (%d)", totalReused, totalBuilt)
	}
}

func TestReuseImprovesProcessingTime(t *testing.T) {
	// Two identical worlds; one with CloudViews onboarded.
	runWorld := func(enable bool) (baseline, final core.DayMetrics) {
		cat := catalog.New()
		gen := workload.NewGenerator(cat, smallProfile())
		if err := gen.Bootstrap(); err != nil {
			t.Fatal(err)
		}
		var vcCfgs []cluster.VCConfig
		for _, vc := range gen.VCNames() {
			vcCfgs = append(vcCfgs, cluster.VCConfig{Name: vc, Tokens: 60})
		}
		eng := core.NewEngine(core.Config{
			ClusterName: "TestC",
			Catalog:     cat,
			ClusterCfg:  cluster.Config{Capacity: 400, VCs: vcCfgs},
			Selection:   analysis.SelectionConfig{ScheduleAware: true, UseBigSubs: true},
		})
		if enable {
			for _, vc := range gen.VCNames() {
				eng.OnboardVC(vc)
			}
		}
		var first, last core.DayMetrics
		for day := 0; day < 3; day++ {
			if day > 0 {
				if err := gen.AdvanceDay(day); err != nil {
					t.Fatal(err)
				}
			}
			m, err := eng.RunDay(day, gen.JobsForDay(day))
			if err != nil {
				t.Fatal(err)
			}
			if day == 0 {
				first = m
			}
			last = m
			eng.RunAnalysis(fixtures.Epoch.AddDate(0, 0, day-7), fixtures.Epoch.AddDate(0, 0, day+1))
		}
		return first, last
	}
	_, offLast := runWorld(false)
	_, onLast := runWorld(true)

	if onLast.ProcessingSec >= offLast.ProcessingSec {
		t.Errorf("CloudViews processing %.0f should beat baseline %.0f",
			onLast.ProcessingSec, offLast.ProcessingSec)
	}
	if onLast.DataReadBytes >= offLast.DataReadBytes {
		t.Errorf("CloudViews data read %d should beat baseline %d",
			onLast.DataReadBytes, offLast.DataReadBytes)
	}
	if onLast.Containers >= offLast.Containers {
		t.Errorf("CloudViews containers %d should beat baseline %d",
			onLast.Containers, offLast.Containers)
	}
}

func TestReuseDoesNotChangeResults(t *testing.T) {
	// The same job must produce identical output with and without reuse.
	mk := func(enable bool) map[string]string {
		cat := catalog.New()
		gen := workload.NewGenerator(cat, smallProfile())
		if err := gen.Bootstrap(); err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngine(core.Config{
			ClusterName: "TestC",
			Catalog:     cat,
			ClusterCfg:  cluster.Config{Capacity: 400},
		})
		if enable {
			for _, vc := range gen.VCNames() {
				eng.OnboardVC(vc)
			}
		}
		outputs := make(map[string]string)
		for day := 0; day < 2; day++ {
			if day > 0 {
				if err := gen.AdvanceDay(day); err != nil {
					t.Fatal(err)
				}
			}
			jobs := gen.JobsForDay(day)
			for _, in := range jobs {
				run, err := eng.CompileAndExecute(in)
				if err != nil {
					t.Fatalf("%s: %v", in.ID, err)
				}
				if !in.Cooking { // cooking outputs include nondeterministic-free data, compare those too
					outputs[in.ID] = run.Exec.Table.Fingerprint()
				} else {
					outputs[in.ID] = run.Exec.Table.Fingerprint()
				}
			}
			eng.RunAnalysis(fixtures.Epoch.AddDate(0, 0, -7), fixtures.Epoch.AddDate(0, 0, day+1))
		}
		return outputs
	}
	off := mk(false)
	on := mk(true)
	if len(off) != len(on) {
		t.Fatalf("job counts differ: %d vs %d", len(off), len(on))
	}
	diff := 0
	for id, fp := range off {
		if on[id] != fp {
			diff++
			if diff <= 3 {
				t.Errorf("job %s output differs under reuse", id)
			}
		}
	}
	if diff > 0 {
		t.Fatalf("%d/%d jobs differ", diff, len(off))
	}
}

func TestOffboardPurgesViews(t *testing.T) {
	eng, gen := newSystem(t)
	for _, vc := range gen.VCNames() {
		eng.OnboardVC(vc)
	}
	if _, err := eng.RunDay(0, gen.JobsForDay(0)); err != nil {
		t.Fatal(err)
	}
	eng.RunAnalysis(fixtures.Epoch.AddDate(0, 0, -1), fixtures.Epoch.AddDate(0, 0, 1))
	if err := gen.AdvanceDay(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunDay(1, gen.JobsForDay(1)); err != nil {
		t.Fatal(err)
	}
	vc := gen.VCNames()[0]
	eng.OffboardVC(vc)
	if eng.Store.UsedBytes(vc) != 0 {
		t.Errorf("offboarded VC still holds %d view bytes", eng.Store.UsedBytes(vc))
	}
}

func TestRuntimeVersionsSegmentReuse(t *testing.T) {
	eng, _ := newSystem(t)
	// Same script compiled under two runtimes must produce different
	// templates (and therefore never share views).
	in := workload.JobInput{
		ID: "a", Cluster: "TestC", VC: "TestC-vc00", Pipeline: "p", User: "u",
		Runtime: "scope-r1",
		Script:  `res = SELECT Region, COUNT(*) AS n FROM TestC_Cooked00 GROUP BY Region; OUTPUT res TO "out/a";`,
		Submit:  fixtures.Epoch.Add(2 * time.Hour),
		OptIn:   true,
	}
	runA, err := eng.CompileAndExecute(in)
	if err != nil {
		t.Fatal(err)
	}
	in2 := in
	in2.ID = "b"
	in2.Runtime = "scope-r2"
	runB, err := eng.CompileAndExecute(in2)
	if err != nil {
		t.Fatal(err)
	}
	if runA.Record.Template == runB.Record.Template {
		t.Error("different runtimes must produce different signatures")
	}
}

// TestRunDayDeterministic: two fresh worlds with identical seeds must produce
// bit-identical day metrics — the experiments' A/B comparisons depend on it.
func TestRunDayDeterministic(t *testing.T) {
	runOnce := func() core.DayMetrics {
		cat := catalog.New()
		gen := workload.NewGenerator(cat, smallProfile())
		if err := gen.Bootstrap(); err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngine(core.Config{
			ClusterName: "TestC",
			Catalog:     cat,
			ClusterCfg:  cluster.Config{Capacity: 400},
		})
		m, err := eng.RunDay(0, gen.JobsForDay(0))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := runOnce(), runOnce()
	if a.Jobs != b.Jobs || a.LatencySec != b.LatencySec || a.ProcessingSec != b.ProcessingSec ||
		a.Containers != b.Containers || a.InputBytes != b.InputBytes ||
		a.DataReadBytes != b.DataReadBytes || a.QueueLen != b.QueueLen {
		t.Errorf("day metrics differ:\n%+v\n%+v", a, b)
	}
}

package insights_test

import (
	"strings"
	"testing"
	"time"

	"cloudviews/internal/insights"
	"cloudviews/internal/obs"
	"cloudviews/internal/signature"
)

func TestMultiLevelControls(t *testing.T) {
	s := insights.NewService()
	if s.Enabled("c1", "vc1", true) {
		t.Error("cluster/vc must default to disabled")
	}
	s.SetClusterEnabled("c1", true)
	if s.Enabled("c1", "vc1", true) {
		t.Error("vc still disabled")
	}
	s.SetVCEnabled("vc1", true)
	if !s.Enabled("c1", "vc1", true) {
		t.Error("all levels on should enable")
	}
	if s.Enabled("c1", "vc1", false) {
		t.Error("job-level opt-out must win")
	}
	s.SetServiceEnabled(false)
	if s.Enabled("c1", "vc1", true) {
		t.Error("service-level kill switch must win")
	}
}

func TestAnnotationServingAndCache(t *testing.T) {
	s := insights.NewService()
	reg := obs.NewRegistry()
	s.SetMetrics(reg)
	tag := signature.Tag("tag-x")
	s.PublishAnnotations(tag, []insights.Annotation{
		{Recurring: "r1", Utility: 10},
		{Recurring: "r2", Utility: 99},
	})
	anns, lat := s.FetchAnnotations(tag)
	if len(anns) != 2 {
		t.Fatalf("anns = %d", len(anns))
	}
	if anns[0].Recurring != "r2" {
		t.Error("annotations must be utility-ranked")
	}
	if lat != insights.RoundTripLatency {
		t.Errorf("cold fetch latency = %v", lat)
	}
	_, lat2 := s.FetchAnnotations(tag)
	if lat2 >= lat {
		t.Errorf("warm fetch should be faster: %v vs %v", lat2, lat)
	}
	// Republish invalidates the cache.
	s.PublishAnnotations(tag, nil)
	_, lat3 := s.FetchAnnotations(tag)
	if lat3 != insights.RoundTripLatency {
		t.Error("republish must invalidate the serving cache")
	}
	fetches := reg.Counter("cloudviews_insights_fetches_total").Value()
	hits := reg.Counter("cloudviews_insights_warm_hits_total").Value()
	if fetches != 3 || hits != 1 {
		t.Errorf("fetches = %g, warm hits = %g, want 3 and 1", fetches, hits)
	}
}

func TestFetchUnknownTag(t *testing.T) {
	s := insights.NewService()
	anns, lat := s.FetchAnnotations("tag-none")
	if len(anns) != 0 || lat <= 0 {
		t.Errorf("anns=%d lat=%v", len(anns), lat)
	}
}

func TestViewLocks(t *testing.T) {
	s := insights.NewService()
	if !s.AcquireViewLock("sig1", "jobA") {
		t.Fatal("first acquire must succeed")
	}
	if !s.AcquireViewLock("sig1", "jobA") {
		t.Error("reacquire by holder must succeed")
	}
	if s.AcquireViewLock("sig1", "jobB") {
		t.Error("second job must not acquire")
	}
	if s.ReleaseViewLock("sig1", "jobB") {
		t.Error("non-holder release must fail")
	}
	if !s.ReleaseViewLock("sig1", "jobA") {
		t.Error("holder release must succeed")
	}
	if !s.AcquireViewLock("sig1", "jobB") {
		t.Error("after release, lock must be free")
	}
	if s.AcquireViewLock("sig1", "jobA") || s.LockCount() != 1 {
		t.Errorf("jobB must hold the one lock (count %d)", s.LockCount())
	}
}

func TestAnnotationsFileRoundTrip(t *testing.T) {
	s := insights.NewService()
	tag := signature.Tag("tag-debug")
	s.PublishAnnotations(tag, []insights.Annotation{
		{Recurring: "r1", VC: "vc9", ExpectedRows: 100, ExpectedBytes: 4096, ExpectedWork: 1.5, Utility: 7},
	})
	blob, err := s.ExportAnnotationsFile(tag)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(blob, "tag-debug") || !strings.Contains(blob, "vc9") {
		t.Errorf("blob missing fields:\n%s", blob)
	}

	s2 := insights.NewService()
	gotTag, err := s2.ImportAnnotationsFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	if gotTag != tag {
		t.Errorf("tag = %s", gotTag)
	}
	anns, _ := s2.FetchAnnotations(tag)
	if len(anns) != 1 || anns[0].ExpectedBytes != 4096 {
		t.Errorf("roundtrip anns = %+v", anns)
	}
	if _, err := s.ExportAnnotationsFile("tag-missing"); err == nil {
		t.Error("export of unknown tag must fail")
	}
	if _, err := s2.ImportAnnotationsFile("{bad json"); err == nil {
		t.Error("import of bad file must fail")
	}
}

// TestUsageCounters: the service's usage lives in the registry it is given
// (views created and reused are the store's and the engine's counters; core's
// TestMetricsExportDeterministic pins them). Every fetch counts, a warm one
// also as a hit, and a lock asked for by a job that does not hold it counts
// as contention. A service given no registry counts nothing and still serves.
func TestUsageCounters(t *testing.T) {
	s := insights.NewService()
	s.FetchAnnotations("tag-a")
	s.AcquireViewLock("sig1", "jobA")
	s.AcquireViewLock("sig1", "jobB")

	reg := obs.NewRegistry()
	s.SetMetrics(reg)
	s.FetchAnnotations("tag-a")
	s.FetchAnnotations("tag-b")
	s.AcquireViewLock("sig1", "jobA")
	s.AcquireViewLock("sig1", "jobB")
	for name, want := range map[string]float64{
		"cloudviews_insights_fetches_total":         2,
		"cloudviews_insights_warm_hits_total":       1,
		"cloudviews_insights_lock_contention_total": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestRoundTripLatencyConstant(t *testing.T) {
	if insights.RoundTripLatency != 15*time.Millisecond {
		t.Errorf("paper reports ~15ms round trips; constant = %v", insights.RoundTripLatency)
	}
}

func TestReplaceAllAnnotationsDropsStaleTags(t *testing.T) {
	s := insights.NewService()
	s.PublishAnnotations("tag-old", []insights.Annotation{{Recurring: "r1", Utility: 5}})
	s.PublishAnnotations("tag-kept", []insights.Annotation{{Recurring: "r2", Utility: 1}})
	s.ReplaceAllAnnotations(map[signature.Tag][]insights.Annotation{
		"tag-kept": {{Recurring: "r2b", Utility: 3}, {Recurring: "r2a", Utility: 9}},
		"tag-new":  {{Recurring: "r3", Utility: 2}},
	})
	if s.TagCount() != 2 {
		t.Errorf("tags = %d, want 2", s.TagCount())
	}
	if anns, _ := s.FetchAnnotations("tag-old"); len(anns) != 0 {
		t.Error("stale tag must be dropped (just-in-time property)")
	}
	anns, _ := s.FetchAnnotations("tag-kept")
	if len(anns) != 2 || anns[0].Recurring != "r2a" {
		t.Errorf("replaced annotations not utility-ranked: %+v", anns)
	}
}

// TestAnnotationOrderDeterministicUnderTies is the regression test for the
// nondeterministic ranking bug: equal-utility annotations were ordered by a
// non-stable sort on Utility alone, so a per-job view cap could pick
// different views run to run. Publishing the same tied set in 100 different
// input permutations must always serve one canonical order.
func TestAnnotationOrderDeterministicUnderTies(t *testing.T) {
	tied := []insights.Annotation{
		{Recurring: "rec-d", VC: "vc2", Utility: 5},
		{Recurring: "rec-b", VC: "vc1", Utility: 5},
		{Recurring: "rec-a", VC: "vc2", Utility: 5},
		{Recurring: "rec-c", VC: "vc1", Utility: 9},
		{Recurring: "rec-a", VC: "vc1", Utility: 5},
	}
	var want []insights.Annotation
	for trial := 0; trial < 100; trial++ {
		// Deterministic pseudo-shuffle: a different rotation + swap pattern
		// per trial, covering many input permutations without math/rand.
		in := append([]insights.Annotation(nil), tied...)
		rot := trial % len(in)
		in = append(in[rot:], in[:rot]...)
		if trial%2 == 1 {
			in[0], in[len(in)-1] = in[len(in)-1], in[0]
		}

		s := insights.NewService()
		s.PublishAnnotations("tag1", in)
		got, _ := s.FetchAnnotations("tag1")
		if trial == 0 {
			want = got
			if want[0].Recurring != "rec-c" {
				t.Fatalf("highest utility must rank first, got %+v", want[0])
			}
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: position %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}

	// ReplaceAllAnnotations must rank identically to PublishAnnotations.
	s := insights.NewService()
	s.ReplaceAllAnnotations(map[signature.Tag][]insights.Annotation{"tag1": tied})
	got, _ := s.FetchAnnotations("tag1")
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReplaceAllAnnotations order diverges at %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

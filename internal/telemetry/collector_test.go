package telemetry

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cloudviews/internal/explain"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/obs"
)

func TestNilCollectorNoOps(t *testing.T) {
	var c *Collector
	c.Observe(0, "vc", jobRecord(1))
	c.ObserveJob(0, "vc", obs.NewTrace("j", fixtures.Epoch))
	c.ObserveDecisions(0, "vc", matched(1))
	c.AddQueueWait(0, "vc", 1)
	c.AddFaultLoss(0, "vc", 1)
	if got := c.EndOfDay(0, map[string]float64{"x": 1}); got != nil {
		t.Errorf("nil EndOfDay = %v", got)
	}
	if c.Snapshot() != nil || c.Alerts() != nil {
		t.Error("nil collector accessors must return nil")
	}
}

// jobRecord is one job's record: 1 s of parse, 3 s of execute, and, when
// saved is positive, a single matched view banking saved container-seconds.
func jobRecord(saved float64) *explain.Job {
	job := explain.NewJob("j", "vc", fixtures.Epoch)
	job.Trace().Span("parse", time.Second)
	job.Trace().Span("execute:stage-00", 3*time.Second)
	if saved > 0 {
		job.Recorder().Record("sig-x", "Filter", explain.ReasonMatched, saved, "")
	}
	return job
}

// jobTrace is the timeline of jobRecord, apart.
func jobTrace() *obs.Trace {
	tr := obs.NewTrace("j", fixtures.Epoch)
	tr.Span("parse", time.Second)
	tr.Span("execute:stage-00", 3*time.Second)
	return tr
}

// matched is the decisions of jobRecord(saved), apart.
func matched(saved float64) *explain.Recorder {
	rec := explain.NewRecorder("j", "vc")
	rec.Record("sig-x", "Filter", explain.ReasonMatched, saved, "")
	return rec
}

func TestCollectorAggregation(t *testing.T) {
	c := NewCollector(Config{})
	c.Observe(0, "vc-a", jobRecord(5))
	c.Observe(0, "vc-a", jobRecord(0))
	c.Observe(0, "vc-b", jobRecord(0))
	c.AddQueueWait(0, "vc-a", 2.5)
	c.AddFaultLoss(0, "vc-b", 1.5)

	rt := c.Snapshot()
	if len(rt.Days) != 1 {
		t.Fatalf("days = %d", len(rt.Days))
	}
	d := rt.Days[0]
	if d.Jobs != 3 {
		t.Errorf("Jobs = %d, want 3", d.Jobs)
	}
	// 3 jobs × 4s wall + 2.5s queue charged on top.
	if d.WallSec != 14.5 {
		t.Errorf("WallSec = %v, want 14.5", d.WallSec)
	}
	if d.Phase["queue"] != 2.5 || d.Phase["execute"] != 9 || d.Phase["parse"] != 3 {
		t.Errorf("Phase = %v", d.Phase)
	}
	if d.ReuseSavedSec != 5 || d.FaultLossSec != 1.5 {
		t.Errorf("saved=%v lost=%v", d.ReuseSavedSec, d.FaultLossSec)
	}
	if !reflect.DeepEqual(d.VCNames, []string{"vc-a", "vc-b"}) {
		t.Errorf("VCNames = %v", d.VCNames)
	}
	a := d.VCs["vc-a"]
	if a.Jobs != 2 || a.WallSec != 10.5 || a.ReuseSavedSec != 5 {
		t.Errorf("vc-a = %+v", a)
	}
	b := d.VCs["vc-b"]
	if b.Jobs != 1 || b.FaultLossSec != 1.5 {
		t.Errorf("vc-b = %+v", b)
	}
}

// TestObserveDecisionsSavedAndMisses: one job's decisions feed both halves of
// the aggregate. Matched decisions bank their SavedCS; every other reason,
// a runtime fallback included, counts as a miss and forfeits its estimate.
// A recorder reset by a job retry credits only the final attempt, while the
// trace keeps every attempt's spans and the job.retry event.
func TestObserveDecisionsSavedAndMisses(t *testing.T) {
	job := explain.NewJob("j", "vc", fixtures.Epoch)
	tr, rec := job.Trace(), job.Recorder()
	tr.Span("insights", time.Second)
	rec.Record("sig-a", "Filter", explain.ReasonMatched, 99, "")
	tr.Span("execute:stage-00", 2*time.Second)
	tr.EventV("job.retry", "attempt=1 backoff=1s", 4)
	rec.Reset() // the failed attempt's decisions are superseded
	tr.Span("insights", time.Second)
	rec.Record("sig-a", "Filter", explain.ReasonMatched, 5, "")
	rec.Record("sig-b", "Join", explain.ReasonCost, 2, "")
	rec.Record("sig-c", "Aggregate", explain.ReasonMatched, 1.5, "")
	tr.Span("execute:stage-00", 2*time.Second)
	rec.Record("sig-c", "Aggregate", explain.ReasonFallback, 1.5, "")
	rec.Record("sig-d", "Project", explain.ReasonNoAnnotation, 0, "")

	if got := len(tr.Spans()); got != 4 {
		t.Errorf("the retried job's trace holds %d spans, want both attempts' 4", got)
	}
	if evs := tr.Events(); len(evs) != 1 || evs[0].Kind != "job.retry" {
		t.Errorf("the retried job's events = %+v, want the job.retry event", evs)
	}
	if ds := rec.Decisions(); len(ds) != 5 || ds[0].SavedCS != 5 || ds[0].Seq != 1 {
		t.Errorf("after Reset the recorder holds %+v, want the final attempt's 5 decisions from Seq 1", ds)
	}

	c := NewCollector(Config{})
	c.Observe(3, "vc", job)
	d := c.Snapshot().Days[0]
	for name, agg := range map[string]VCAgg{"day": d.VCAgg, "vc": d.VCs["vc"]} {
		if agg.ReuseSavedSec != 6.5 {
			t.Errorf("%s: ReuseSavedSec = %v, want 6.5 (5 + 1.5, the reset attempt's 99 dropped)", name, agg.ReuseSavedSec)
		}
		wantMiss := map[string]int{"cost": 1, "fallback": 1, "no-annotation": 1}
		if !reflect.DeepEqual(agg.MissReasons, wantMiss) {
			t.Errorf("%s: MissReasons = %v, want %v", name, agg.MissReasons, wantMiss)
		}
		wantForfeit := map[string]float64{"cost": 2, "fallback": 1.5}
		if !reflect.DeepEqual(agg.ForfeitSec, wantForfeit) {
			t.Errorf("%s: ForfeitSec = %v, want %v", name, agg.ForfeitSec, wantForfeit)
		}
		if agg.Jobs != 1 || agg.WallSec != 6 || agg.FaultLossSec != 4 || agg.Phase["execute"] != 4 {
			t.Errorf("%s: jobs %d, wall %v, fault loss %v, phases %v; want 1, 6, 4 and 4 s of execute",
				name, agg.Jobs, agg.WallSec, agg.FaultLossSec, agg.Phase)
		}
	}
}

// TestObserveForwardsMatchObserve: ObserveJob and ObserveDecisions, which
// benchmark/probe.go calls with a trace and a recorder built apart, fold
// exactly what Observe folds from one record.
func TestObserveForwardsMatchObserve(t *testing.T) {
	one, two := NewCollector(Config{}), NewCollector(Config{})
	for day := 0; day < 2; day++ {
		one.Observe(day, "vc", jobRecord(float64(day)))
		two.ObserveJob(day, "vc", jobTrace())
		if day > 0 {
			two.ObserveDecisions(day, "vc", matched(float64(day)))
		}
	}
	two.ObserveDecisions(5, "vc", explain.NewRecorder("j", "vc")) // empty: no day
	if a, b := one.Snapshot(), two.Snapshot(); !reflect.DeepEqual(a.Days, b.Days) {
		t.Errorf("forwards folded %+v, Observe %+v", b.Days, a.Days)
	}
}

// TestUnknownSpanFamilyReachesTheDay: a span family outside Phases keeps its
// own bucket from Analyze through to the day and VC aggregates, so a new
// family shows up rather than vanishes.
func TestUnknownSpanFamilyReachesTheDay(t *testing.T) {
	job := jobRecord(0)
	job.Trace().Span("custom:x", 2*time.Second)
	c := NewCollector(Config{})
	c.Observe(0, "vc", job)
	d := c.Snapshot().Days[0]
	for name, agg := range map[string]VCAgg{"day": d.VCAgg, "vc": d.VCs["vc"]} {
		want := map[string]float64{"parse": 1, "execute": 3, "custom": 2}
		if !reflect.DeepEqual(agg.Phase, want) {
			t.Errorf("%s: Phase = %v, want %v", name, agg.Phase, want)
		}
	}
}

func TestCollectorEndOfDayAndAlerts(t *testing.T) {
	c := NewCollector(Config{Rules: []Rule{
		{Name: "too-big", Metric: "x", Kind: Above, Threshold: 10, Severity: SevPage},
	}})
	if got := c.EndOfDay(0, map[string]float64{"x": 5, "y": 1}); len(got) != 0 {
		t.Errorf("day 0 fired: %v", got)
	}
	alerts := c.EndOfDay(1, map[string]float64{"x": 50, "y": 2})
	if len(alerts) != 1 || alerts[0].Rule != "too-big" || alerts[0].Day != 1 {
		t.Fatalf("day 1 alerts = %v", alerts)
	}
	// The collector accumulates the alert log across days.
	if all := c.Alerts(); len(all) != 1 || all[0].Rule != "too-big" {
		t.Errorf("Alerts() = %v", all)
	}
	rt := c.Snapshot()
	if len(rt.Alerts) != 1 {
		t.Errorf("snapshot alerts = %v", rt.Alerts)
	}
	x := rt.SeriesByName("x")
	if x == nil || x.Count != 2 || x.Last != 50 {
		t.Errorf("series x = %+v", x)
	}
	if rt.SeriesByName("nope") != nil {
		t.Error("SeriesByName on a missing name must return nil")
	}
}

func TestCollectorSnapshotSorted(t *testing.T) {
	c := NewCollector(Config{})
	c.EndOfDay(0, map[string]float64{"zz": 1, "aa": 2, "mm": 3})
	c.Observe(2, "vc", jobRecord(0))
	c.Observe(1, "vc", jobRecord(0))
	rt := c.Snapshot()
	for i := 1; i < len(rt.Series); i++ {
		if rt.Series[i-1].Name >= rt.Series[i].Name {
			t.Fatalf("series not sorted: %v >= %v", rt.Series[i-1].Name, rt.Series[i].Name)
		}
	}
	if len(rt.Days) != 2 || rt.Days[0].Day != 1 || rt.Days[1].Day != 2 {
		t.Errorf("days not sorted: %+v", rt.Days)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vc := fmt.Sprintf("vc-%d", g%3)
			for i := 0; i < 50; i++ {
				c.Observe(0, vc, jobRecord(1))
				c.AddQueueWait(0, vc, 0.5)
				c.AddFaultLoss(0, vc, 0.25)
			}
		}(g)
	}
	wg.Wait()
	rt := c.Snapshot()
	d := rt.Days[0]
	if d.Jobs != 8*50 {
		t.Errorf("Jobs = %d, want %d", d.Jobs, 8*50)
	}
	if d.ReuseSavedSec != 400 {
		t.Errorf("saved = %v, want 400", d.ReuseSavedSec)
	}
}

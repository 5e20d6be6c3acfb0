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

// jobTrace is one job's timeline: 1 s of parse, 3 s of execute.
func jobTrace() *obs.Trace {
	tr := obs.NewTrace("j", fixtures.Epoch)
	tr.Span("parse", time.Second)
	tr.Span("execute:stage-00", 3*time.Second)
	return tr
}

// matched is one job's decisions: a single matched view banking saved
// container-seconds.
func matched(saved float64) *explain.Recorder {
	rec := explain.NewRecorder("j", "vc")
	rec.Record("sig-x", "Filter", explain.ReasonMatched, saved, "")
	return rec
}

func TestCollectorAggregation(t *testing.T) {
	c := NewCollector(Config{})
	c.ObserveJob(0, "vc-a", jobTrace())
	c.ObserveDecisions(0, "vc-a", matched(5))
	c.ObserveJob(0, "vc-a", jobTrace())
	c.ObserveJob(0, "vc-b", jobTrace())
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
// A recorder reset by a job retry credits only the final attempt.
func TestObserveDecisionsSavedAndMisses(t *testing.T) {
	rec := explain.NewRecorder("j", "vc")
	rec.Record("sig-a", "Filter", explain.ReasonMatched, 99, "")
	rec.Reset() // the failed attempt's decisions are superseded
	rec.Record("sig-a", "Filter", explain.ReasonMatched, 5, "")
	rec.Record("sig-b", "Join", explain.ReasonCost, 2, "")
	rec.Record("sig-c", "Aggregate", explain.ReasonMatched, 1.5, "")
	rec.Record("sig-c", "Aggregate", explain.ReasonFallback, 1.5, "")
	rec.Record("sig-d", "Project", explain.ReasonNoAnnotation, 0, "")

	c := NewCollector(Config{})
	c.ObserveDecisions(3, "vc", rec)
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
	c.ObserveJob(2, "vc", jobTrace())
	c.ObserveJob(1, "vc", jobTrace())
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
				c.ObserveJob(0, vc, jobTrace())
				c.ObserveDecisions(0, vc, matched(1))
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

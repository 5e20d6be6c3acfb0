package telemetry

import (
	"math"
	"testing"
	"time"

	"cloudviews/internal/fixtures"
	"cloudviews/internal/obs"
)

func sumPhases(bd Breakdown) float64 {
	var s float64
	for _, v := range bd.Phase {
		s += v
	}
	return s
}

func TestAnalyzeNilAndZeroSpan(t *testing.T) {
	bd := Analyze(nil)
	if bd.WallSec != 0 || len(bd.Phase) != 0 {
		t.Errorf("nil trace: %+v", bd)
	}
	tr := obs.NewTrace("j", fixtures.Epoch)
	tr.Event("view.proposed", "sig=abc")
	bd = Analyze(tr)
	if bd.WallSec != 0 || sumPhases(bd) != 0 {
		t.Errorf("zero-span trace must yield zero breakdown, got %+v", bd)
	}
}

func TestAnalyzeSequentialSpans(t *testing.T) {
	tr := obs.NewTrace("j", fixtures.Epoch)
	tr.Span("parse", 1*time.Second)
	tr.Span("bind", 2*time.Second)
	tr.Span("insights", 3*time.Second)
	tr.Span("execute:stage-00", 4*time.Second)
	bd := Analyze(tr)
	if bd.WallSec != 10 {
		t.Fatalf("WallSec=%v, want 10", bd.WallSec)
	}
	want := map[string]float64{"parse": 1, "bind": 2, "insights": 3, "execute": 4}
	for p, sec := range want {
		if bd.Phase[p] != sec {
			t.Errorf("Phase[%s]=%v, want %v", p, bd.Phase[p], sec)
		}
	}
	if got := sumPhases(bd); got != bd.WallSec {
		t.Errorf("phases sum to %v, wall is %v", got, bd.WallSec)
	}
}

var phaseSink map[string]float64

// TestAnalyzeAllocatesOnlyItsBreakdown: the sweep's intervals and cuts live
// on the stack, so Analyze allocates what its Phase map costs and nothing
// else. Analyze runs once per job.
func TestAnalyzeAllocatesOnlyItsBreakdown(t *testing.T) {
	tr := obs.NewTrace("j", fixtures.Epoch)
	for _, name := range []string{"parse", "bind", "insights", "optimize", "execute:stage-00"} {
		tr.Span(name, time.Second)
	}
	tr.SpanAt("seal", fixtures.Epoch.Add(3*time.Second), 10*time.Second)
	bd := Analyze(tr)
	phases := testing.AllocsPerRun(100, func() {
		phaseSink = make(map[string]float64)
		for p, sec := range bd.Phase {
			phaseSink[p] += sec
		}
	})
	got := testing.AllocsPerRun(100, func() { Analyze(tr) })
	t.Logf("%.0f allocs per six-span Analyze, %.0f for its %d-phase map", got, phases, len(bd.Phase))
	if got != phases {
		t.Errorf("%.0f allocs per six-span Analyze, want the Phase map's %.0f", got, phases)
	}
}

func TestAnalyzeOverlapPriority(t *testing.T) {
	// A seal window overlapping an execute span: the overlapping instants go
	// to execute (higher priority); only the uncovered tail is seal.
	tr := obs.NewTrace("j", fixtures.Epoch)
	tr.Span("execute:stage-00", 10*time.Second)
	tr.SpanAt("seal", fixtures.Epoch.Add(5*time.Second), 10*time.Second)
	bd := Analyze(tr)
	if bd.WallSec != 15 {
		t.Fatalf("WallSec=%v, want 15", bd.WallSec)
	}
	if bd.Phase["execute"] != 10 {
		t.Errorf("execute=%v, want 10 (wins the overlap)", bd.Phase["execute"])
	}
	if bd.Phase["seal"] != 5 {
		t.Errorf("seal=%v, want 5 (only the uncovered tail)", bd.Phase["seal"])
	}
	if got := sumPhases(bd); got != bd.WallSec {
		t.Errorf("phases sum to %v, wall is %v", got, bd.WallSec)
	}
}

func TestAnalyzeGapGoesToOther(t *testing.T) {
	// Disjoint spans with a hole between them: the hole is attributed to
	// "other" so the reconciliation invariant holds.
	tr := obs.NewTrace("j", fixtures.Epoch)
	tr.Span("parse", 2*time.Second)
	tr.SpanAt("execute:stage-00", fixtures.Epoch.Add(5*time.Second), 3*time.Second)
	bd := Analyze(tr)
	if bd.WallSec != 8 {
		t.Fatalf("WallSec=%v, want 8", bd.WallSec)
	}
	if bd.Phase["other"] != 3 {
		t.Errorf("other=%v, want 3 (the uncovered gap)", bd.Phase["other"])
	}
	if got := sumPhases(bd); got != bd.WallSec {
		t.Errorf("phases sum to %v, wall is %v", got, bd.WallSec)
	}
}

func TestAnalyzeUnknownSpanFamily(t *testing.T) {
	// Unknown span prefixes keep their own bucket (and rank above "other").
	tr := obs.NewTrace("j", fixtures.Epoch)
	tr.Span("mystery:phase", 4*time.Second)
	bd := Analyze(tr)
	if bd.Phase["mystery"] != 4 {
		t.Errorf("mystery=%v, want 4", bd.Phase["mystery"])
	}
}

// TestAnalyzeEventTallies: the only event Analyze reads is job.retry, whose
// value is the recompile and backoff the retry cost; other events on the
// timeline carry no loss.
func TestAnalyzeEventTallies(t *testing.T) {
	tr := obs.NewTrace("j", fixtures.Epoch)
	tr.Span("execute:stage-00", time.Second)
	tr.Event("view.proposed", "sig=ghi")
	tr.EventV("job.retry", "attempt=1", 7)
	tr.EventV("job.retry", "attempt=2", 4.5)
	bd := Analyze(tr)
	if bd.FaultLossSec != 11.5 {
		t.Errorf("FaultLossSec=%v, want 11.5 (retries 7 + 4.5)", bd.FaultLossSec)
	}
}

// TestAnalyzeReconciliationGenerated sweeps generated span layouts (nested,
// overlapping, disjoint, zero-duration) and pins the invariant the per-day
// tables rely on: the phase attribution partitions the wall span exactly.
func TestAnalyzeReconciliationGenerated(t *testing.T) {
	names := []string{"parse", "bind", "insights", "optimize", "queue:cluster",
		"execute:stage-00", "materialize:stage-01", "seal", "weird:thing"}
	// Deterministic LCG so the layout sweep reproduces.
	state := uint64(42)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for run := 0; run < 200; run++ {
		tr := obs.NewTrace("j", fixtures.Epoch)
		spans := 1 + next(7)
		for i := 0; i < spans; i++ {
			name := names[next(len(names))]
			start := time.Duration(next(5000)) * time.Millisecond
			dur := time.Duration(next(8000)) * time.Millisecond
			if next(5) == 0 {
				dur = 0
			}
			tr.SpanAt(name, fixtures.Epoch.Add(start), dur)
		}
		bd := Analyze(tr)
		if diff := math.Abs(sumPhases(bd) - bd.WallSec); diff > 1e-9 {
			t.Fatalf("run %d: phases sum %.12f != wall %.12f (diff %g)\nphases: %v",
				run, sumPhases(bd), bd.WallSec, diff, bd.Phase)
		}
	}
}

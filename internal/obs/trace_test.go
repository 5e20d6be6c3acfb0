package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

var traceEpoch = time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

func TestTraceZeroSpansRender(t *testing.T) {
	tr := NewTrace("empty", traceEpoch)
	out := tr.Render()
	if !strings.HasPrefix(out, "trace empty (start 2020-02-01T00:00:00Z)\n") {
		t.Errorf("header: %q", out)
	}
	if strings.Count(out, "\n") != 1 {
		t.Errorf("zero-span trace must render header only, got %q", out)
	}
	if tr.Spans() != nil || tr.Events() != nil {
		t.Error("fresh trace must have no spans/events")
	}
	if tr.HasSpan("execute") {
		t.Error("HasSpan on an empty trace")
	}
}

func TestTraceEventValue(t *testing.T) {
	tr := NewTrace("j", traceEpoch)
	tr.EventV("job.retry", "attempt=1", 12.5)
	tr.Event("view.proposed", "sig=x")
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Value != 12.5 || evs[1].Value != 0 {
		t.Fatalf("events = %+v", evs)
	}
	// The value is a machine-readable side channel: Render must not leak it
	// (the rendered trace format is pinned by goldens elsewhere).
	if strings.Contains(tr.Render(), "12.5") {
		t.Errorf("Render leaked event value: %q", tr.Render())
	}
}

// TestTraceConcurrentSpanFinish hammers one trace from many goroutines (spans
// ending "at the same time" as events fire) and checks, under -race, that the
// per-trace lock covers every path and no record is lost.
func TestTraceConcurrentSpanFinish(t *testing.T) {
	tr := NewTrace("j", traceEpoch)
	const goroutines, per = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				switch i % 3 {
				case 0:
					tr.Span(fmt.Sprintf("execute:stage-%02d", g), time.Millisecond)
				case 1:
					tr.SpanAt("seal", traceEpoch, time.Second)
				default:
					tr.EventV("job.retry", "attempt=1", 1)
				}
			}
		}(g)
	}
	wg.Wait()
	spans, events := tr.Spans(), tr.Events()
	if got := len(spans) + len(events); got != goroutines*per {
		t.Errorf("recorded %d entries, want %d", got, goroutines*per)
	}
	// Seq must be a permutation of 0..n-1: unique per record even under
	// contention.
	seen := make(map[int]bool, goroutines*per)
	for _, s := range spans {
		seen[s.Seq] = true
	}
	for _, e := range events {
		seen[e.Seq] = true
	}
	if len(seen) != goroutines*per {
		t.Errorf("%d distinct seqs, want %d", len(seen), goroutines*per)
	}
}

// TestTraceRenderStableWithTiedTimestamps pins Render's byte-stability when
// many records share one simulated instant: ordering falls back to Seq, so
// 100 renders of the same trace are byte-identical.
func TestTraceRenderStableWithTiedTimestamps(t *testing.T) {
	tr := NewTrace("j", traceEpoch)
	for i := 0; i < 10; i++ {
		// Zero-duration spans: every span and event lands on the same instant.
		tr.Span(fmt.Sprintf("optimize:rule-%d", i), 0)
		tr.Event("view.abandoned", fmt.Sprintf("reason=seal-failed i=%d", i))
	}
	first := tr.Render()
	for i := 1; i < 100; i++ {
		if got := tr.Render(); got != first {
			t.Fatalf("render %d differs:\n%s\n--- vs ---\n%s", i, got, first)
		}
	}
	// Recording order is preserved in the render despite identical times.
	if idx0 := strings.Index(first, "optimize:rule-0"); idx0 < 0 || idx0 > strings.Index(first, "optimize:rule-9") {
		t.Error("render does not preserve recording order for tied timestamps")
	}
}

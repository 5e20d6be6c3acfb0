package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2024, 3, 1, 8, 0, 0, 0, time.UTC)

func TestTraceSpansAndEvents(t *testing.T) {
	tr := NewTrace("job-1", epoch)
	tr.Span("parse", 0)
	tr.Span("insights", 40*time.Millisecond)
	tr.Event("view.proposed", "sig=abc")
	tr.Span("optimize", 0)
	tr.SpanAt("queue:cluster", epoch.Add(time.Second), 2*time.Second)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	// The cursor advances through in-band spans only.
	if got := spans[1].Start; !got.Equal(epoch) {
		t.Errorf("insights span starts at %v, want %v", got, epoch)
	}
	if got := spans[2].Start; !got.Equal(epoch.Add(40 * time.Millisecond)) {
		t.Errorf("optimize span starts at %v, want cursor after insights", got)
	}
	// SpanAt does not move the cursor.
	tr.Span("seal-check", 0)
	last := tr.Spans()[4]
	if !last.Start.Equal(epoch.Add(40 * time.Millisecond)) {
		t.Errorf("SpanAt moved the cursor: next span at %v", last.Start)
	}

	evs := tr.Events()
	if len(evs) != 1 || evs[0].Kind != "view.proposed" || evs[0].Detail != "sig=abc" {
		t.Fatalf("unexpected events %+v", evs)
	}
	if !evs[0].At.Equal(epoch.Add(40 * time.Millisecond)) {
		t.Errorf("event recorded at %v, want cursor time", evs[0].At)
	}

	if !tr.HasSpan("insights") || !tr.HasSpan("queue") || tr.HasSpan("execute") {
		t.Error("HasSpan prefix matching is wrong")
	}

	r := tr.Render()
	for _, want := range []string{"trace job-1", "parse", "view.proposed", "queue:cluster"} {
		if !strings.Contains(r, want) {
			t.Errorf("Render missing %q:\n%s", want, r)
		}
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Span("parse", time.Second)
	tr.SpanAt("queue", epoch, 0)
	tr.Event("x", "y")
	if tr.Spans() != nil || tr.Events() != nil || tr.HasSpan("parse") || tr.Render() != "" {
		t.Error("nil trace must no-op everywhere")
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	g := r.Gauge("y")
	g.Set(5)
	g.Add(-1)
	h := r.Histogram("z", []float64{1, 2})
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || r.ExportString() != "" {
		t.Error("nil registry must hand out no-op metrics")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("cloudviews_jobs_total")
	b := r.Counter("cloudviews_jobs_total")
	if a != b {
		t.Error("Counter must return the same instance per name")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Errorf("shared counter value = %v, want 2", b.Value())
	}
}

func TestExportDeterministicAndSorted(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Gauge(`cloudviews_view_bytes{vc="b"}`).Set(10)
		r.Counter("cloudviews_views_created_total").Add(3)
		r.Gauge(`cloudviews_view_bytes{vc="a"}`).Set(7)
		h := r.Histogram("cloudviews_cluster_queue_length", []float64{0, 1, 2})
		h.Observe(0)
		h.Observe(1)
		h.Observe(5)
		return r
	}
	out1 := build().ExportString()
	out2 := build().ExportString()
	if out1 != out2 {
		t.Fatalf("export not deterministic:\n%s\nvs\n%s", out1, out2)
	}

	want := "# TYPE cloudviews_cluster_queue_length histogram\n" +
		"cloudviews_cluster_queue_length_bucket{le=\"0\"} 1\n" +
		"cloudviews_cluster_queue_length_bucket{le=\"1\"} 2\n" +
		"cloudviews_cluster_queue_length_bucket{le=\"2\"} 2\n" +
		"cloudviews_cluster_queue_length_bucket{le=\"+Inf\"} 3\n" +
		"cloudviews_cluster_queue_length_sum 6\n" +
		"cloudviews_cluster_queue_length_count 3\n" +
		"# TYPE cloudviews_view_bytes gauge\n" +
		"cloudviews_view_bytes{vc=\"a\"} 7\n" +
		"cloudviews_view_bytes{vc=\"b\"} 10\n" +
		"# TYPE cloudviews_views_created_total counter\n" +
		"cloudviews_views_created_total 3\n"
	if out1 != want {
		t.Errorf("export format drifted:\n--- got ---\n%s--- want ---\n%s", out1, want)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines; run
// under -race this is the data-race guard for the whole metrics layer.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, rounds = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{1, 10}).Observe(float64(i % 12))
				if i%100 == 0 {
					_ = r.ExportString()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*rounds {
		t.Errorf("counter = %v, want %d", got, workers*rounds)
	}
	if got := r.Gauge("g").Value(); got != workers*rounds {
		t.Errorf("gauge = %v, want %d", got, workers*rounds)
	}
	if got := r.Histogram("h", nil).Count(); got != workers*rounds {
		t.Errorf("histogram count = %v, want %d", got, workers*rounds)
	}
}

// TestTraceConcurrent exercises concurrent span/event recording (async jobs
// share a trace with the cluster scheduler appending queue spans).
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("job-c", epoch)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Span("execute", time.Millisecond)
				tr.Event("view.proposed", "x")
				_ = tr.Render()
			}
		}()
	}
	wg.Wait()
	if len(tr.Spans()) != 800 || len(tr.Events()) != 800 {
		t.Errorf("got %d spans / %d events, want 800/800", len(tr.Spans()), len(tr.Events()))
	}
}

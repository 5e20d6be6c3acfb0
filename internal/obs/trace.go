// Package obs is the observability layer of the CloudViews reproduction:
// per-job traces that lay out each job's timeline (the reuse decisions
// themselves are recorded once, by package explain), and a process-wide
// metrics registry with a deterministic Prometheus-text export. The paper's central operational lesson (§4–§5) is that computation
// reuse survived production because the team could SEE the loop working —
// per-job telemetry, insights round-trip latency, view lifecycle counters —
// so this package is deliberately boring: append-only traces in simulated
// time (never time.Now, so traces and exports are reproducible), lock-free
// counters, and a byte-stable export ordering.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed phase of a job, in simulated time. Durations are the
// engine's simulated estimates (insights round trips, stage work over the
// token allocation), not wall-clock measurements, so identical submissions
// produce identical spans.
type Span struct {
	Name  string
	Start time.Time
	Dur   time.Duration
	// Seq orders spans and events by recording time.
	Seq int
}

// Event is one point on a job's timeline: annotations served, a view
// proposed or abandoned, a spool write failed, a job retried.
type Event struct {
	Kind   string
	Detail string
	At     time.Time
	Seq    int
	// Value carries an optional machine-readable quantity in seconds (the
	// recompile and backoff a retry paid), so downstream analyzers never
	// parse Detail strings. Zero when the event has no quantity; not
	// rendered, so Render output is unchanged.
	Value float64
}

// Trace accumulates the spans and events of one job. All methods
// are safe on a nil receiver (they no-op), so instrumented code never needs
// to check whether tracing is enabled, and safe for concurrent use.
type Trace struct {
	JobID string

	mu     sync.Mutex
	start  time.Time
	cursor time.Time
	seq    int
	spans  []Span
	events []Event
}

// NewTrace starts a trace at the job's simulated submission time. Span
// storage is preallocated for a typical job (front-end phases plus a dozen
// execute stages) so recording doesn't regrow the slice per phase.
func NewTrace(jobID string, start time.Time) *Trace {
	return &Trace{JobID: jobID, start: start, cursor: start, spans: make([]Span, 0, 16)}
}

// Span records a phase beginning at the trace cursor and advances the cursor
// by d. Zero-duration spans are legal and mark ordering-only phases.
func (t *Trace) Span(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: t.cursor, Dur: d, Seq: t.seq})
	t.seq++
	t.cursor = t.cursor.Add(d)
}

// SpanAt records an out-of-band phase (queue wait filled in by the cluster
// schedule, the seal window of a materialized view) without moving the
// cursor.
func (t *Trace) SpanAt(name string, at time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: at, Dur: d, Seq: t.seq})
	t.seq++
}

// Event records an event at the current cursor.
func (t *Trace) Event(kind, detail string) {
	t.EventV(kind, detail, 0)
}

// EventV records an event carrying a numeric quantity (seconds) that
// telemetry analyzers can aggregate without parsing the detail string.
func (t *Trace) EventV(kind, detail string, value float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, Event{Kind: kind, Detail: detail, At: t.cursor, Seq: t.seq, Value: value})
	t.seq++
}

// Spans returns a copy of the recorded spans in recording order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Events returns a copy of the recorded events in recording order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// ForEachSpan calls fn for every recorded span in recording order, without
// copying the span slice. fn runs under the trace lock and must not call back
// into the trace.
func (t *Trace) ForEachSpan(fn func(Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		fn(s)
	}
}

// ForEachEvent calls fn for every recorded event in recording order, without
// copying the event slice. fn runs under the trace lock and must not call
// back into the trace.
func (t *Trace) ForEachEvent(fn func(Event)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.events {
		fn(e)
	}
}

// HasSpan reports whether any span's name equals name or starts with
// name + ":" (so HasSpan("execute") matches "execute:stage-00").
func (t *Trace) HasSpan(name string) bool {
	for _, s := range t.Spans() {
		if s.Name == name || strings.HasPrefix(s.Name, name+":") {
			return true
		}
	}
	return false
}

// Render formats the trace for terminal display, spans and events merged in
// recording order with offsets relative to the trace start.
func (t *Trace) Render() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	jobID, start := t.JobID, t.start
	spans := append([]Span(nil), t.spans...)
	events := append([]Event(nil), t.events...)
	t.mu.Unlock()

	type line struct {
		seq  int
		text string
	}
	lines := make([]line, 0, len(spans)+len(events))
	for _, s := range spans {
		lines = append(lines, line{s.Seq, fmt.Sprintf("  span   %-22s @%-12s dur=%s",
			s.Name, "+"+s.Start.Sub(start).String(), s.Dur)})
	}
	for _, e := range events {
		lines = append(lines, line{e.Seq, fmt.Sprintf("  event  %-22s @%-12s %s",
			e.Kind, "+"+e.At.Sub(start).String(), e.Detail)})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].seq < lines[j].seq })

	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (start %s)\n", jobID, start.UTC().Format(time.RFC3339))
	for _, l := range lines {
		b.WriteString(l.text)
		b.WriteByte('\n')
	}
	return b.String()
}

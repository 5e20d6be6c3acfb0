package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call recorded by the benchmark. Spans of one op share
// Trace (the job or day ID); Parent names the span that caused this one. The
// root span of an op wraps the real call into the system; its children are
// probes, separate calls into one layer's exported entry point made right
// after the real call returned.
type span struct {
	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// counterLine is a count recorded beside the spans, so the table can weight a
// layer by how often the real path ran it.
type counterLine struct {
	Counter string  `json:"counter"`
	Value   float64 `json:"value"`
}

// spanLog collects one client's spans in memory.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog(t0 time.Time) *spanLog {
	return &spanLog{t0: t0, spans: make([]span, 0, 1<<12)}
}

// timed runs fn and records it as a span.
func (l *spanLog) timed(trace, name, parent string, fn func()) {
	start := time.Since(l.t0)
	fn()
	l.add(trace, name, parent, start, time.Since(l.t0))
}

func (l *spanLog) add(trace, name, parent string, start, end time.Duration) {
	l.spans = append(l.spans, span{
		Trace: trace, Span: name, Parent: parent, Layer: layerOf(name),
		Start: int64(start), End: int64(end),
	})
}

// layerOf maps a span name like "optimizer.compile" to its module.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// rootSpan is the name of the span that wraps the real call of an op.
const rootSpan = "op"

func writeTrace(path string, spans []span, counters map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := enc.Encode(counterLine{Counter: n, Value: counters[n]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTrace(path string) ([]span, map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var spans []span
	counters := make(map[string]float64)
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var line struct {
			span
			counterLine
		}
		if err := dec.Decode(&line); err == io.EOF {
			return spans, counters, nil
		} else if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if line.Counter != "" {
			counters[line.Counter] = line.Value
		} else {
			spans = append(spans, line.span)
		}
	}
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	name   string
	parent string
	count  int
	meanUs float64
}

func spanStats(spans []span) map[string]*spanStat {
	out := make(map[string]*spanStat)
	for _, s := range spans {
		st := out[s.Span]
		if st == nil {
			st = &spanStat{name: s.Span, parent: s.Parent}
			out[s.Span] = st
		}
		st.count++
		st.meanUs += float64(s.End-s.Start) / 1e3
	}
	for _, st := range out {
		st.meanUs /= float64(st.count)
	}
	return out
}

// contribution is one row of the "where a microsecond goes" table.
type contribution struct {
	name    string
	parent  string
	count   int
	meanUs  float64
	runs    float64 // times per op the real path runs this layer
	totalUs float64 // meanUs × runs: expected share of the op
	selfUs  float64 // totalUs minus the children's totalUs
}

// contributions weights every probe span by how often the real path runs it,
// and takes each span's self time as its total minus its children's totals.
// The root's self time is what no probe accounts for (core.other_us).
func contributions(spans []span, counters map[string]float64) []contribution {
	stats := spanStats(spans)
	// How often per op the real path runs a span's layer. A probe is a call of
	// the benchmark's own, so the trace's counter "runs.<span>" says it (0.2
	// for a layer only a fifth of the ops reach). A span recorded inside its
	// parent — a step of the real call, a fetch inside the exec probe — ran as
	// often as it was seen, relative to the parent.
	var runs func(name string) float64
	runs = func(name string) float64 {
		st := stats[name]
		if v, ok := counters["runs."+name]; ok {
			return v
		}
		if p := stats[st.parent]; p != nil {
			return runs(st.parent) * float64(st.count) / float64(p.count)
		}
		return 1
	}
	rows := make(map[string]*contribution, len(stats))
	for name, st := range stats {
		c := &contribution{name: name, parent: st.parent, count: st.count, meanUs: st.meanUs, runs: runs(name)}
		c.totalUs = c.meanUs * c.runs
		c.selfUs = c.totalUs
		rows[name] = c
	}
	for _, c := range rows {
		if p := rows[c.parent]; p != nil {
			p.selfUs -= c.totalUs
		}
	}
	out := make([]contribution, 0, len(rows))
	for _, c := range rows {
		out = append(out, *c)
	}
	sort.Slice(out, func(a, b int) bool {
		if (out[a].name == rootSpan) != (out[b].name == rootSpan) {
			return out[a].name == rootSpan
		}
		return out[a].totalUs > out[b].totalUs
	})
	return out
}

// renderTable writes the markdown "where a microsecond goes" table of one
// trace file.
func renderTable(w io.Writer, title string, spans []span, counters map[string]float64) {
	rows := contributions(spans, counters)
	var root float64
	for _, r := range rows {
		if r.name == rootSpan {
			root = r.meanUs
		}
	}
	fmt.Fprintf(w, "### %s\n\n", title)
	fmt.Fprintln(w, "| span | parent | probes | probe mean µs | runs per op | µs per op | self µs | share of op |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---:|---:|---:|")
	for _, r := range rows {
		// A span outside the op's tree (serve_mixed's per-path timings) is a
		// measurement of its own, not a share of the op.
		share := ""
		if root > 0 && (r.parent != "" || r.name == rootSpan) {
			share = fmt.Sprintf("%.1f%%", r.selfUs/root*100)
		}
		name := r.name
		if name == rootSpan {
			name = "op (real call; self = core.other)"
		}
		fmt.Fprintf(w, "| %s | %s | %d | %.2f | %.3f | %.2f | %.2f | %s |\n",
			name, r.parent, r.count, r.meanUs, r.runs, r.totalUs, r.selfUs, share)
	}
	fmt.Fprintln(w)
}

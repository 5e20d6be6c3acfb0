package telemetry

import (
	"strings"
	"testing"
	"time"

	"cloudviews/internal/fixtures"
	"cloudviews/internal/obs"
)

func demoTelemetry() *RunTelemetry {
	c := NewCollector(Config{Rules: []Rule{
		{Name: "too-big", Metric: "day_jobs", Kind: Above, Threshold: 1, Severity: SevWarn},
	}})
	for day := 0; day < 3; day++ {
		tr := obs.NewTrace("j", fixtures.Epoch.AddDate(0, 0, day))
		tr.Span("parse", time.Second)
		tr.Span("execute:stage-00", 5*time.Second)
		c.ObserveJob(day, "vc-a", tr)
		c.ObserveDecisions(day, "vc-a", matched(2))
		c.AddQueueWait(day, "vc-a", 1)
		c.EndOfDay(day, map[string]float64{
			"day_jobs": float64(day + 1), `labeled{vc="a"}`: 10,
		})
	}
	return c.Snapshot()
}

func TestRenderTextContent(t *testing.T) {
	r := &Report{Title: "demo", Arms: []ArmReport{{Name: "cv", Telemetry: demoTelemetry()}}}
	text := r.RenderText()
	for _, want := range []string{
		"== arm: cv — SLO verdict: REGRESSED",
		"SERIES", "day_jobs", "CRITICAL PATH", "execute", "queue",
		"PER-DAY HEALTH", "ALERTS (2)", "reuse saved 6.0s",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q\n%s", want, text)
		}
	}
	// Labeled series stay out of the plain-text series table.
	if strings.Contains(text, "labeled{") {
		t.Error("labeled series leaked into the text series table")
	}
}

func TestRenderEmptyArm(t *testing.T) {
	r := &Report{Title: "t", Arms: []ArmReport{{Name: "none", Telemetry: nil}}}
	text := r.RenderText()
	if !strings.Contains(text, "(no telemetry recorded)") || !strings.Contains(text, "SLO verdict: OK") {
		t.Errorf("nil-telemetry arm: %q", text)
	}
	htmlOut := r.RenderHTML()
	if !strings.Contains(htmlOut, "(no telemetry recorded)") {
		t.Errorf("nil-telemetry arm HTML: %q", htmlOut)
	}
}

func TestRenderDeterministic(t *testing.T) {
	r := &Report{Title: "demo", Arms: []ArmReport{
		{Name: "base", Telemetry: demoTelemetry()},
		{Name: "cv", Telemetry: demoTelemetry()},
	}}
	text, htmlOut := r.RenderText(), r.RenderHTML()
	for i := 0; i < 20; i++ {
		if r.RenderText() != text {
			t.Fatal("RenderText is nondeterministic")
		}
		if r.RenderHTML() != htmlOut {
			t.Fatal("RenderHTML is nondeterministic")
		}
	}
}

func TestRenderHTMLEscapes(t *testing.T) {
	r := &Report{Title: `<script>alert("x")</script>`, Arms: []ArmReport{{Name: "<b>", Telemetry: demoTelemetry()}}}
	out := r.RenderHTML()
	if strings.Contains(out, "<script>alert") || strings.Contains(out, "arm: <b>") {
		t.Error("HTML output does not escape user-controlled strings")
	}
}

func TestSparkSVG(t *testing.T) {
	if got := sparkSVG(nil); !strings.Contains(got, "<svg") {
		t.Errorf("empty sparkSVG = %q", got)
	}
	one := sparkSVG([]Point{{0, 5}})
	if !strings.Contains(one, "circle") {
		t.Errorf("single-point sparkSVG = %q", one)
	}
	many := sparkSVG([]Point{{0, 1}, {1, 2}, {2, 3}})
	if !strings.Contains(many, "polyline") {
		t.Errorf("multi-point sparkSVG = %q", many)
	}
}

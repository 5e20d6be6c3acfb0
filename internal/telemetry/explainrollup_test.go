package telemetry

import "testing"

// TestRenderExplainText pins the fleet rollup figure cvsim -explain prints:
// totals sorted by reason with the forfeited seconds beside them, then one
// line per day with that day's reasons sorted.
func TestRenderExplainText(t *testing.T) {
	r := &ExplainRollup{
		TotalMiss:       map[string]int{"no-annotation": 12, "cost": 3},
		TotalForfeitSec: map[string]float64{"cost": 4.5},
		Days: []ExplainDay{
			{Day: 0, Miss: map[string]int{"no-annotation": 10}},
			{Day: 1, Miss: map[string]int{"no-annotation": 2, "cost": 3}, ForfeitSec: map[string]float64{"cost": 4.5}},
		},
	}
	want := "REUSE MISS REASONS (fleet rollup)\n" +
		"  reason                     misses  forfeited-sec\n" +
		"  cost                            3            4.5\n" +
		"  no-annotation                  12            0.0\n" +
		"  per-day:\n" +
		"    day 00: no-annotation=10\n" +
		"    day 01: cost=3 no-annotation=2\n"
	if got := r.RenderExplainText(); got != want {
		t.Errorf("RenderExplainText:\n%s\nwant:\n%s", got, want)
	}
}

// TestRenderExplainTextEmpty: a run without a single miss (or without
// telemetry at all) says so instead of printing an empty table.
func TestRenderExplainTextEmpty(t *testing.T) {
	want := "REUSE MISS REASONS (fleet rollup)\n  (no reuse misses recorded)\n"
	if got := BuildExplainRollup(nil).RenderExplainText(); got != want {
		t.Errorf("RenderExplainText on an empty rollup = %q, want %q", got, want)
	}
}

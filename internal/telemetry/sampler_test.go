package telemetry

import (
	"math"
	"testing"
)

func TestSampler(t *testing.T) {
	rules := []Rule{
		{Name: "too-big", Metric: "b", Kind: Above, Threshold: 10, Severity: SevPage},
		{Name: "grew", Metric: "a", Kind: GrowthPct, Threshold: 50, Window: 1, Severity: SevWarn},
	}
	s := NewSampler(4, rules)
	if s.LastDay() != math.MinInt || s.Snapshot() != nil {
		t.Fatalf("fresh sampler: last day %d, series %v", s.LastDay(), s.Snapshot())
	}

	// Series appear the first time a name is sampled, whatever order the map
	// yields them in, and list sorted.
	if got := s.Sample(0, map[string]float64{"c": 1, "a": 10, "b": 20}); len(got) != 1 || got[0].Rule != "too-big" {
		t.Fatalf("day 0 alerts = %v, want too-big", got)
	}
	snap := s.Snapshot()
	if len(snap) != 3 || snap[0].Name != "a" || snap[1].Name != "b" || snap[2].Name != "c" {
		t.Fatalf("series = %+v, want a, b, c", snap)
	}
	if s.LastDay() != 0 {
		t.Errorf("LastDay = %d, want 0", s.LastDay())
	}

	// A series not sampled today is stale and not judged: b still reads 20
	// but only a's growth fires.
	got := s.Sample(1, map[string]float64{"a": 100})
	if len(got) != 1 || got[0].Rule != "grew" || got[0].Reference != 10 {
		t.Fatalf("day 1 alerts = %v, want grew against reference 10", got)
	}
	if s.Sample(2, nil) != nil {
		t.Error("a day with no values judged stale series")
	}

	// A fresh sampler (what a guard reset installs) has forgotten the
	// references: the same day-1 sample has nothing to grow from.
	s = NewSampler(4, rules)
	if got := s.Sample(1, map[string]float64{"a": 100}); got != nil {
		t.Errorf("fresh sampler judged against a forgotten reference: %v", got)
	}
}

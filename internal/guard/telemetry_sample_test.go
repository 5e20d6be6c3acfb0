package guard

import (
	"testing"

	"cloudviews/internal/signature"
	"cloudviews/internal/telemetry"
)

// TestTelemetrySamplesGuardGauges covers the guard → telemetry seam: the
// day-boundary Sample map must land in the collector as day-cadence series
// with the right values as breakers trip, VCs get killed, and the staged
// ramp brings them back. This is the path cvdash and the SLO watchdog read.
func TestTelemetrySamplesGuardGauges(t *testing.T) {
	g := testGuard(Config{})
	coll := telemetry.NewCollector(telemetry.Config{})
	sig := signature.Sig("sig-sample")

	sampleDay := func(day int) {
		m := make(map[string]float64)
		g.Sample(m)
		coll.EndOfDay(day, m)
	}

	// Day 0: one admin-tripped breaker, nothing else.
	g.TripBreaker(0, sig)
	sampleDay(0)

	// Days 1-2: a fallback storm kills vc1 (two alerting days). The storm's
	// own signature breaker also trips organically, so two breakers are open
	// until the admin one is reset and the organic one half-opens after its
	// cooldown.
	stormDays(g, "vc1", 1, 3)
	sampleDay(1)
	if got := vcState(g, "vc1"); got != VCKilled {
		t.Fatalf("vc1 state after storm = %v, want killed", got)
	}

	// Quiet cooldown, then the staged ramp starts.
	g.ResetBreaker(2, sig)
	g.EndOfDay(3)
	g.EndOfDay(4)
	if got := vcState(g, "vc1"); got != VCRamping {
		t.Fatalf("vc1 state after cooldown = %v, want ramping", got)
	}
	sampleDay(2)

	rt := coll.Snapshot()
	want := map[string][]telemetry.Point{
		"guard_breakers_open":     {{Day: 0, Value: 1}, {Day: 1, Value: 2}, {Day: 2, Value: 0}},
		"guard_breakers_halfopen": {{Day: 0, Value: 0}, {Day: 1, Value: 0}, {Day: 2, Value: 1}},
		"guard_vcs_killed":        {{Day: 0, Value: 0}, {Day: 1, Value: 1}, {Day: 2, Value: 0}},
		"guard_vcs_ramping":       {{Day: 0, Value: 0}, {Day: 1, Value: 0}, {Day: 2, Value: 1}},
	}
	for name, points := range want {
		s := rt.SeriesByName(name)
		if s == nil {
			t.Errorf("series %s missing from snapshot", name)
			continue
		}
		if len(s.Points) != len(points) {
			t.Errorf("%s: %d points, want %d (%+v)", name, len(s.Points), len(points), s.Points)
			continue
		}
		for i, p := range points {
			if s.Points[i] != p {
				t.Errorf("%s[%d] = %+v, want %+v", name, i, s.Points[i], p)
			}
		}
	}

	// The decision log gauge grows monotonically: admin trips, storms,
	// kills, and ramps all log decisions.
	s := rt.SeriesByName("guard_decisions")
	if s == nil {
		t.Fatal("guard_decisions series missing")
	}
	last := -1.0
	for _, p := range s.Points {
		if p.Value < last {
			t.Fatalf("guard_decisions not monotonic: %+v", s.Points)
		}
		last = p.Value
	}
	if last == 0 {
		t.Fatal("guard_decisions never counted anything")
	}
}

// vcState reads one VC's kill-switch position (test helper; same package).
func vcState(g *Guard, vc string) VCState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.vcLocked(vc).state
}

package telemetry

import (
	"strings"
	"testing"
)

func seriesMap(t *testing.T, vals map[string][]float64) map[string]*Series {
	t.Helper()
	m := make(map[string]*Series)
	for name, vs := range vals {
		s := NewSeries(name, 16)
		for day, v := range vs {
			s.Append(day, v)
		}
		m[name] = s
	}
	return m
}

func TestWatchdogAboveBelow(t *testing.T) {
	w := NewWatchdog([]Rule{
		{Name: "too-big", Metric: "x", Kind: Above, Threshold: 10, Severity: SevPage},
		{Name: "too-small", Metric: "y", Kind: Below, Threshold: 5, Severity: SevWarn},
	})
	m := seriesMap(t, map[string][]float64{"x": {1, 20}, "y": {9, 2}})
	alerts := w.Evaluate(1, m)
	if len(alerts) != 2 {
		t.Fatalf("got %d alerts, want 2: %v", len(alerts), alerts)
	}
	if alerts[0].Rule != "too-big" || alerts[0].Severity != SevPage || alerts[0].Value != 20 {
		t.Errorf("alert[0] = %+v", alerts[0])
	}
	if alerts[1].Rule != "too-small" || alerts[1].Value != 2 {
		t.Errorf("alert[1] = %+v", alerts[1])
	}
	// Threshold not crossed on the earlier day: evaluating day 0 against the
	// same map must skip (latest sample belongs to day 1).
	if got := w.Evaluate(0, m); len(got) != 0 {
		t.Errorf("stale-day evaluation fired: %v", got)
	}
}

func TestWatchdogDropPct(t *testing.T) {
	rules := []Rule{{Name: "drop", Metric: "hit", Kind: DropPct, Threshold: 60, Window: 1, MinReference: 0.10, Severity: SevWarn}}
	w := NewWatchdog(rules)

	// 0.50 → 0.10 is an 80% drop: fires.
	m := seriesMap(t, map[string][]float64{"hit": {0.50, 0.10}})
	alerts := w.Evaluate(1, m)
	if len(alerts) != 1 {
		t.Fatalf("expected drop alert, got %v", alerts)
	}
	if !strings.Contains(alerts[0].Message, "dropped 80.0%") {
		t.Errorf("message = %q", alerts[0].Message)
	}

	// Same ratio from a reference below MinReference: noise, stays silent.
	m = seriesMap(t, map[string][]float64{"hit": {0.05, 0.01}})
	if got := w.Evaluate(1, m); len(got) != 0 {
		t.Errorf("sub-floor reference fired: %v", got)
	}

	// Only one sample: no reference, silent.
	m = seriesMap(t, map[string][]float64{"hit": {0.5}})
	if got := w.Evaluate(0, m); len(got) != 0 {
		t.Errorf("single-sample series fired: %v", got)
	}
}

func TestWatchdogGrowthPctMinValue(t *testing.T) {
	rules := []Rule{{Name: "growth", Metric: "q", Kind: GrowthPct, Threshold: 150, Window: 1, MinValue: 4, Severity: SevWarn}}
	w := NewWatchdog(rules)

	// 2 → 6 is +200%, over the limit, and the value clears MinValue: fires.
	m := seriesMap(t, map[string][]float64{"q": {2, 6}})
	if got := w.Evaluate(1, m); len(got) != 1 {
		t.Fatalf("expected growth alert, got %v", got)
	}
	// 1 → 3 is +200% but value 3 < MinValue 4: silent.
	m = seriesMap(t, map[string][]float64{"q": {1, 3}})
	if got := w.Evaluate(1, m); len(got) != 0 {
		t.Errorf("sub-MinValue growth fired: %v", got)
	}
}

func TestWatchdogWindowedReference(t *testing.T) {
	rules := []Rule{{Name: "drop", Metric: "m", Kind: DropPct, Threshold: 40, Window: 3, Severity: SevWarn}}
	w := NewWatchdog(rules)
	// Reference = mean(10,10,10) = 10; value 5 is a 50% drop.
	m := seriesMap(t, map[string][]float64{"m": {10, 10, 10, 5}})
	alerts := w.Evaluate(3, m)
	if len(alerts) != 1 || alerts[0].Reference != 10 {
		t.Fatalf("windowed drop: %v", alerts)
	}
	if !strings.Contains(alerts[0].Message, "3-day reference") {
		t.Errorf("message = %q", alerts[0].Message)
	}
}

func TestWatchdogPrefixMatch(t *testing.T) {
	rules := []Rule{{Name: "budget", Metric: `bytes{*`, Kind: Above, Threshold: 100, Severity: SevPage}}
	w := NewWatchdog(rules)
	m := seriesMap(t, map[string][]float64{
		`bytes{vc="b"}`: {150},
		`bytes{vc="a"}`: {200},
		`bytes{vc="c"}`: {50},
		"unrelated":     {999},
	})
	alerts := w.Evaluate(0, m)
	if len(alerts) != 2 {
		t.Fatalf("got %d alerts, want 2 (a and b): %v", len(alerts), alerts)
	}
	// Sorted metric order within the rule.
	if alerts[0].Metric != `bytes{vc="a"}` || alerts[1].Metric != `bytes{vc="b"}` {
		t.Errorf("alert order: %v, %v", alerts[0].Metric, alerts[1].Metric)
	}
}

func TestWatchdogDeterministicOrder(t *testing.T) {
	rules := []Rule{
		{Name: "r2-last-in-rules", Metric: "b", Kind: Above, Threshold: 0, Severity: SevWarn},
		{Name: "r1", Metric: "a", Kind: Above, Threshold: 0, Severity: SevWarn},
	}
	w := NewWatchdog(rules)
	m := seriesMap(t, map[string][]float64{"a": {1}, "b": {1}})
	for i := 0; i < 10; i++ {
		alerts := w.Evaluate(0, m)
		if len(alerts) != 2 || alerts[0].Rule != "r2-last-in-rules" || alerts[1].Rule != "r1" {
			t.Fatalf("iteration %d: rule order not preserved: %v", i, alerts)
		}
	}
}

func TestDefaultRules(t *testing.T) {
	rules := DefaultRules()
	names := make([]string, 0, len(rules))
	for _, r := range rules {
		names = append(names, r.Name)
	}
	want := []string{"hit-rate-drop", "queue-growth", "fault-spike", "miss-reason-spike"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("default rules = %v, want %v (the storage budget is opt-in)", names, want)
	}
	for _, r := range rules {
		if r.Name == "miss-reason-spike" {
			if r.Metric != SeriesMissPrefix+"*" || r.Kind != GrowthPct {
				t.Errorf("miss-reason-spike must prefix-match the labeled miss series: %+v", r)
			}
			if r.MinReference <= 0 || r.MinValue <= 0 {
				t.Errorf("miss-reason-spike needs noise floors to stay silent on healthy runs: %+v", r)
			}
		}
	}

	r := StorageBudgetRule(1 << 20)
	if r.Name != "storage-budget" || r.Severity != SevPage || r.Threshold != float64(1<<20) {
		t.Errorf("storage rule = %+v", r)
	}
	if !strings.HasSuffix(r.Metric, "*") {
		t.Errorf("storage rule must prefix-match per-VC gauges, metric = %q", r.Metric)
	}
}

func TestWithThreshold(t *testing.T) {
	base := DefaultRules()
	got := WithThreshold(base, "fault-spike", 20)
	for i, r := range got {
		want := base[i]
		if r.Name == "fault-spike" {
			want.Threshold = 20
		}
		if r != want {
			t.Errorf("rule %d = %+v, want %+v", i, r, want)
		}
	}
	if base[2].Threshold != 8 {
		t.Errorf("WithThreshold wrote its argument: %+v", base[2])
	}
	defer func() {
		if recover() == nil {
			t.Error("an unknown rule name must panic, not leave the default in force")
		}
	}()
	WithThreshold(base, "fault-spikes", 20)
}

func TestVerdict(t *testing.T) {
	if got := Verdict(nil); got != "OK" {
		t.Errorf("Verdict(nil) = %q", got)
	}
	alerts := []Alert{
		{Severity: SevPage}, {Severity: SevWarn}, {Severity: SevWarn},
	}
	if got := Verdict(alerts); got != "REGRESSED (1 page, 2 warn)" {
		t.Errorf("Verdict = %q", got)
	}
	if got := Verdict([]Alert{{Severity: SevWarn}}); got != "REGRESSED (1 warn)" {
		t.Errorf("Verdict = %q", got)
	}
}

func TestAlertString(t *testing.T) {
	a := Alert{Day: 3, Severity: SevPage, Rule: "storage-budget", Message: "over"}
	if got := a.String(); got != "day 03 [page] storage-budget: over" {
		t.Errorf("String() = %q", got)
	}
}

func TestServerRules(t *testing.T) {
	rules := ServerRules()
	names := make([]string, 0, len(rules))
	for _, r := range rules {
		names = append(names, r.Name)
	}
	want := []string{"shed-spike", "auth-failures", "accept-drop"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("server rules = %v, want %v", names, want)
	}
	for _, r := range rules {
		if r.Name == "shed-spike" || r.Name == "accept-drop" {
			if !strings.HasSuffix(r.Metric, "*") {
				t.Errorf("%s must prefix-match per-tenant series, metric = %q", r.Name, r.Metric)
			}
		}
	}

	// The shed rule fires on a per-tenant spike and stays silent below it.
	w := NewWatchdog(WithThreshold(ServerRules(), "shed-spike", 5))
	m := seriesMap(t, map[string][]float64{
		`cvserve_shed_total{reason="queue",tenant="a"}`: {10},
		`cvserve_shed_total{reason="rate",tenant="b"}`:  {2},
	})
	alerts := w.Evaluate(0, m)
	if len(alerts) != 1 || alerts[0].Rule != "shed-spike" || !strings.Contains(alerts[0].Metric, `tenant="a"`) {
		t.Errorf("shed evaluation = %v, want one tenant-a shed-spike", alerts)
	}
}

// TestWatchdogColdSeries is the cold-start regression table: series that are
// empty, hold a single sample, or reference an all-zero warm-up window must
// never fire a rule of any kind — the MinCount / MinValue / MinReference
// floors exist precisely so a watchdog pointed at a just-created series stays
// silent until there is evidence to judge.
func TestWatchdogColdSeries(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		vals []float64 // appended starting at day 0
		day  int       // evaluation day
		want bool      // expect the rule to fire
	}{
		// Empty series: no sample for the day, every kind skips.
		{"empty-above", Rule{Kind: Above, Threshold: 1}, nil, 0, false},
		{"empty-below", Rule{Kind: Below, Threshold: 100}, nil, 0, false},
		{"empty-drop", Rule{Kind: DropPct, Threshold: 10, Window: 1}, nil, 0, false},
		{"empty-growth", Rule{Kind: GrowthPct, Threshold: 10, Window: 1}, nil, 0, false},

		// Single sample: delta rules have no reference yet; point rules are
		// silenced by the MinCount floor even when the lone value crosses.
		{"single-above-mincount", Rule{Kind: Above, Threshold: 1, MinCount: 2}, []float64{50}, 0, false},
		{"single-below-mincount", Rule{Kind: Below, Threshold: 100, MinCount: 2}, []float64{0}, 0, false},
		{"single-drop", Rule{Kind: DropPct, Threshold: 10, Window: 1}, []float64{0}, 0, false},
		{"single-growth", Rule{Kind: GrowthPct, Threshold: 10, Window: 1}, []float64{1e9}, 0, false},

		// All-zero reference window: a drop from nothing is not a drop and
		// growth over zero is undefined; both stay silent without floors.
		{"zero-ref-drop", Rule{Kind: DropPct, Threshold: 10, Window: 2}, []float64{0, 0, 0}, 2, false},
		{"zero-ref-growth", Rule{Kind: GrowthPct, Threshold: 10, Window: 2}, []float64{0, 0, 100}, 2, false},

		// MinReference keeps noise-level references from judging deltas.
		{"tiny-ref-drop", Rule{Kind: DropPct, Threshold: 10, Window: 1, MinReference: 0.5}, []float64{0.1, 0}, 1, false},
		{"tiny-ref-growth", Rule{Kind: GrowthPct, Threshold: 10, Window: 1, MinReference: 5}, []float64{1, 4}, 1, false},

		// MinValue keeps noise-level day values from firing point rules.
		{"minvalue-above", Rule{Kind: Above, Threshold: 0.5, MinValue: 2}, []float64{1}, 0, false},

		// Once warm, the same rules judge again.
		{"warm-above-fires", Rule{Kind: Above, Threshold: 1, MinCount: 2}, []float64{0, 50}, 1, true},
		{"warm-below-fires", Rule{Kind: Below, Threshold: 100, MinCount: 2}, []float64{200, 2}, 1, true},
		{"warm-drop-fires", Rule{Kind: DropPct, Threshold: 50, Window: 1, MinReference: 0.5}, []float64{10, 1}, 1, true},
		{"warm-growth-fires", Rule{Kind: GrowthPct, Threshold: 50, Window: 1, MinReference: 0.5}, []float64{10, 100}, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rule := tc.rule
			rule.Name = tc.name
			rule.Metric = "m"
			rule.Severity = SevWarn
			w := NewWatchdog([]Rule{rule})
			s := NewSeries("m", 16)
			for day, v := range tc.vals {
				s.Append(day, v)
			}
			alerts := w.Evaluate(tc.day, map[string]*Series{"m": s})
			if fired := len(alerts) > 0; fired != tc.want {
				t.Fatalf("fired=%v want=%v (alerts: %v)", fired, tc.want, alerts)
			}
		})
	}
}

// TestWatchdogMinCountReleases: MinCount counts samples ever appended (not
// retained), so a long-lived ring-buffer series is never re-silenced.
func TestWatchdogMinCountReleases(t *testing.T) {
	w := NewWatchdog([]Rule{{Name: "r", Metric: "m", Kind: Below, Threshold: 5, MinCount: 3, Severity: SevWarn}})
	s := NewSeries("m", 2) // retains only 2 points
	for day := 0; day < 5; day++ {
		s.Append(day, 1) // always under the floor
		alerts := w.Evaluate(day, map[string]*Series{"m": s})
		fired := len(alerts) > 0
		if day < 2 && fired {
			t.Fatalf("day %d: rule fired before MinCount", day)
		}
		if day >= 2 && !fired {
			t.Fatalf("day %d: rule silent after MinCount (retained=%d, count=%d)", day, s.Len(), s.Count())
		}
	}
}

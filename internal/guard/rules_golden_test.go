package guard

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"cloudviews/internal/telemetry"
)

func renderRules(title string, rules []telemetry.Rule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (%d rules) ==\n", title, len(rules))
	for i, r := range rules {
		fmt.Fprintf(&b, "%d name=%s metric=%s kind=%s threshold=%g window=%d min_reference=%g min_value=%g min_count=%d severity=%s\n",
			i, r.Name, r.Metric, r.Kind, r.Threshold, r.Window, r.MinReference, r.MinValue, r.MinCount, r.Severity)
	}
	return b.String()
}

// TestRuleListsAreTheOldDefaults pins every field of every rule of the three
// rule lists, in order. testdata/rules.golden was rendered by this function
// at the last commit that built the lists from threshold structs, from the
// zero value of each struct: the constants are what the defaults were.
func TestRuleListsAreTheOldDefaults(t *testing.T) {
	want, err := os.ReadFile("testdata/rules.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := renderRules("telemetry.DefaultRules", telemetry.DefaultRules()) +
		renderRules("telemetry.ServerRules", telemetry.ServerRules()) +
		renderRules("guard.VCRules", VCRules())
	if got != string(want) {
		t.Errorf("rule lists moved.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGuardTuningIsTheOldDefaults pins the breaker, kill-switch and ramp constants
// field by field. testdata/tuning.golden was rendered from
// Config{}.withDefaults() at the last commit whose Config carried these
// fields: the constants are what the defaults were. Never regenerate it.
func TestGuardTuningIsTheOldDefaults(t *testing.T) {
	want, err := os.ReadFile("testdata/tuning.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("== guard.Config{}.withDefaults() ==\n"+
		"Seed=%v\nBreakerMinFallbacks=%v\nBreakerBadRatio=%v\nCooldownDays=%v\nProbeFraction=%v\n"+
		"ProbeSuccesses=%v\nKillAlertDays=%v\nReenableDays=%v\nRampFractions=%v\nRampStageDays=%v\n",
		hashSeed, New(Config{Enabled: true}).minFallbacks, breakerBadRatio, cooldownDays, probeFraction,
		probeSuccesses, killAlertDays, reenableDays, rampFractions, rampStageDays)
	if got != string(want) {
		t.Errorf("guard tuning moved.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

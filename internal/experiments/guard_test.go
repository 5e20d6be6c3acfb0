package experiments

import (
	"strings"
	"testing"

	"cloudviews/internal/fault"
	"cloudviews/internal/telemetry"
)

// smallGuardConfig shrinks the guard chaos experiment for the test suite:
// few pipelines, a 12-day window with the storm in the middle third.
func smallGuardConfig() ProductionConfig {
	cfg := DefaultGuardComparison()
	cfg.Profile.Pipelines = 40
	cfg.Profile.PrefixPool = 24
	cfg.Profile.CookedDatasets = 8
	cfg.Profile.RawStreams = 5
	cfg.Profile.VCs = 4
	cfg.Days = 12
	cfg.RampDays = 2
	cfg.Capacity = 120
	// The tiny workload reuses too little for the derived size-based budget
	// (3× per-VC pipelines) to separate the arms; pin one that does: the
	// guarded arm's storm days stay under 20 recoveries, the unguarded arm's
	// exceed it.
	cfg.SLORules = telemetry.WithThreshold(telemetry.DefaultRules(), "fault-spike", 20)
	return cfg
}

// TestGuardStormComparison is the fault-storm smoke the CI chaos gate runs:
// under an identical seeded view-read storm the unguarded arm regresses
// (watchdog alerts fire) while the guarded arm quarantines the stormed views
// and its SLO verdict stays green.
func TestGuardStormComparison(t *testing.T) {
	r, err := RunGuardComparison(smallGuardConfig())
	if err != nil {
		t.Fatal(err)
	}

	// The storm must actually bite: the unguarded arm sees fallbacks on
	// storm days.
	var unguardedStormFB, guardedStormFB int
	for _, d := range r.Days {
		if d.Storm {
			unguardedStormFB += d.Unguarded.ReuseFallbacks
			guardedStormFB += d.Guarded.ReuseFallbacks
		}
	}
	if unguardedStormFB == 0 {
		t.Fatal("storm injected no fallbacks in the unguarded arm — the scenario is vacuous")
	}
	// The guard quarantines after a bounded number of fallbacks per
	// signature, so the guarded arm eats strictly fewer.
	if guardedStormFB >= unguardedStormFB {
		t.Fatalf("guard did not reduce storm fallbacks: guarded=%d unguarded=%d",
			guardedStormFB, unguardedStormFB)
	}

	// The guard must have tripped at least one breaker during the storm.
	if !strings.Contains(r.GuardLog, "breaker-trip") {
		t.Fatalf("no breaker tripped under the storm:\n%s", r.GuardLog)
	}

	// CI smoke contract: unguarded regresses, guarded stays green.
	unv, gv := r.Verdicts()
	if unv == "OK" {
		t.Fatalf("unguarded arm verdict OK under the storm (want REGRESSED); fallbacks=%d", unguardedStormFB)
	}
	if gv != "OK" {
		t.Fatalf("guarded arm verdict %s (want OK):\nalerts: %v\nlog:\n%s", gv, r.GuardedAlerts, r.GuardLog)
	}
}

// TestGuardComparisonDeterministic: identical seeds yield byte-identical
// guard decision logs and figures.
func TestGuardComparisonDeterministic(t *testing.T) {
	cfg := smallGuardConfig()
	cfg.Days = 9
	a, err := RunGuardComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGuardComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.GuardLog != b.GuardLog {
		t.Fatalf("same seed, different guard logs:\n--- a ---\n%s\n--- b ---\n%s", a.GuardLog, b.GuardLog)
	}
	if RenderGuardFigure(a) != RenderGuardFigure(b) {
		t.Fatal("same seed, different figures")
	}
}

// TestStormWrapsFaults: the storm fails only the stormed VC's view reads,
// only while active, and leaves the configured points' rates alone.
func TestStormWrapsFaults(t *testing.T) {
	active := false
	cfg := withStorm(fault.Config{
		Seed:  7,
		Rates: map[fault.Point]float64{fault.StageFail: 1, fault.ViewRead: 0.5},
	}, "VC1", &active)
	inj := fault.New(cfg)
	stormed, other := "views/VC1/abc", "views/VC2/abc"
	if inj.Should(fault.ViewRead, stormed) {
		t.Error("storm fired before it was active")
	}
	active = true
	if !inj.Should(fault.ViewRead, stormed) {
		t.Error("storm spared a stormed VC's view read")
	}
	if inj.Should(fault.ViewRead, other) {
		t.Error("storm hit another VC's view read")
	}
	if !inj.Should(fault.StageFail, "job-1") {
		t.Error("storm dropped a configured point's rate")
	}
}

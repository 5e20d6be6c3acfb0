package guard

import (
	"fmt"
	"strings"
	"testing"

	"cloudviews/internal/obs"
	"cloudviews/internal/signature"
)

func testGuard(cfg Config) *Guard {
	cfg.Enabled = true
	return New(cfg)
}

// feedDay pushes n outcomes for one signature on one VC, fellBack of them
// failing, and returns any eager decisions.
func feedDay(g *Guard, day int, vc string, sig signature.Sig, matches, fallbacks int) []Decision {
	var out []Decision
	for i := 0; i < matches; i++ {
		out = append(out, g.ObserveJob(day, vc, "job-m", []ViewOutcome{{Recurring: sig, SavedSec: 10}})...)
	}
	for i := 0; i < fallbacks; i++ {
		out = append(out, g.ObserveJob(day, vc, "job-f", []ViewOutcome{{Recurring: sig, SavedSec: 10, FellBack: true}})...)
	}
	return out
}

func TestGuardNilIsAllowEverything(t *testing.T) {
	var g *Guard
	if g.Enabled() {
		t.Fatal("nil guard reports enabled")
	}
	if !g.AllowReuse("vc", "j") || !g.AllowMatch("vc", "j", "sig") {
		t.Fatal("nil guard denied something")
	}
	if d := g.EndOfDay(0); d != nil {
		t.Fatalf("nil guard produced decisions: %v", d)
	}
	g.ObserveJob(0, "vc", "j", nil)
	g.AddLatency(0, "vc", 1)
	g.Sample(map[string]float64{})
	if New(Config{}) != nil {
		t.Fatal("disabled config built a guard")
	}
}

func TestBreakerTripsEagerlyIntraDay(t *testing.T) {
	g := testGuard(Config{})
	sig := signature.Sig("sig-bad")
	// Two fallbacks: below the MinFallbacks=3 floor, no trip.
	if d := feedDay(g, 0, "vc1", sig, 0, 2); len(d) != 0 {
		t.Fatalf("tripped below the floor: %v", d)
	}
	if !g.AllowMatch("vc1", "j", sig) {
		t.Fatal("breaker open before the floor")
	}
	// Third fallback crosses floor and ratio: trips immediately, mid-day.
	d := feedDay(g, 0, "vc1", sig, 0, 1)
	if len(d) != 1 || d[0].Kind != "breaker-trip" {
		t.Fatalf("expected eager breaker-trip, got %v", d)
	}
	if g.AllowMatch("vc1", "j", sig) {
		t.Fatal("open breaker admitted a match")
	}
}

func TestBreakerRatioProtectsMostlyHealthyViews(t *testing.T) {
	g := testGuard(Config{})
	sig := signature.Sig("sig-ok")
	// 17 clean matches then 3 fallbacks: 3/20 is under BadRatio=0.5.
	if d := feedDay(g, 0, "vc1", sig, 17, 3); len(d) != 0 {
		t.Fatalf("healthy view tripped: %v", d)
	}
	if !g.AllowMatch("vc1", "j", sig) {
		t.Fatal("healthy view quarantined")
	}
}

func TestBreakerCooldownHalfOpenCloseAndReopen(t *testing.T) {
	g := testGuard(Config{})
	sig := signature.Sig("sig-x")
	probes := func() int {
		admitted := 0
		for i := 0; i < 100; i++ {
			if g.AllowMatch("vc1", fmt.Sprintf("job-%d", i), sig) {
				admitted++
			}
		}
		return admitted
	}
	feedDay(g, 0, "vc1", sig, 0, 3) // trips day 0
	g.EndOfDay(0)
	g.EndOfDay(1) // day-openedDay = 1 < cooldownDays: still open
	if n := probes(); n != 0 {
		t.Fatalf("breaker admitted %d/100 jobs during cooldown", n)
	}
	d := g.EndOfDay(2) // cooldown over: half-open
	if len(d) != 1 || d[0].Kind != "breaker-halfopen" {
		t.Fatalf("expected breaker-halfopen, got %v", d)
	}
	// A seeded-hash quarter of jobs probe the view; the rest stay denied.
	if n := probes(); n == 0 || n == 100 {
		t.Fatalf("half-open breaker admitted %d/100 jobs, want a probe fraction", n)
	}
	// Two clean probes close it at the day boundary.
	feedDay(g, 3, "vc1", sig, 2, 0)
	d = g.EndOfDay(3)
	if len(d) != 1 || d[0].Kind != "breaker-close" {
		t.Fatalf("expected breaker-close, got %v", d)
	}
	// Trip again, half-open, then a probe fallback reopens immediately.
	feedDay(g, 4, "vc1", sig, 0, 3)
	g.EndOfDay(4)
	g.EndOfDay(5)
	g.EndOfDay(6) // half-open
	d = feedDay(g, 7, "vc1", sig, 0, 1)
	if len(d) != 1 || d[0].Kind != "breaker-reopen" {
		t.Fatalf("expected breaker-reopen on probe fallback, got %v", d)
	}
}

func TestBreakerIsolationAcrossVCsAndSigs(t *testing.T) {
	g := testGuard(Config{})
	bad, good := signature.Sig("sig-bad"), signature.Sig("sig-good")
	feedDay(g, 0, "vc-storm", bad, 0, 5)
	feedDay(g, 0, "vc-quiet", good, 5, 0)
	if g.AllowMatch("vc-storm", "j", bad) {
		t.Fatal("stormed signature not quarantined")
	}
	if !g.AllowMatch("vc-quiet", "j", good) {
		t.Fatal("fault storm on one signature quarantined another")
	}
	snap := g.Snapshot()
	for _, b := range snap.Breakers {
		if b.Sig == string(good) && b.State != "closed" {
			t.Fatalf("healthy sig state %s", b.State)
		}
	}
}

// stormDays drives a VC through alerting days: each day accumulates more
// fallbacks than FallbackSpikeMax, so the vc-fallback-spike rule fires.
func stormDays(g *Guard, vc string, from, to int) {
	for day := from; day < to; day++ {
		sig := signature.Sig("s-" + vc)
		for i := 0; i < 6; i++ {
			g.ObserveJob(day, vc, "j", []ViewOutcome{{Recurring: sig, SavedSec: 1, FellBack: true}})
		}
		g.EndOfDay(day)
	}
}

func TestVCKillSwitchAndStagedRamp(t *testing.T) {
	g := testGuard(Config{})
	stormDays(g, "vc1", 0, 2) // two alerting days -> kill on day 1
	log := g.RenderLog()
	if !strings.Contains(log, "[vc-kill] vc1") {
		t.Fatalf("no kill after %d alert days:\n%s", 2, log)
	}
	// Killed: admission denied for all jobs.
	denied := 0
	for i := 0; i < 50; i++ {
		if !g.AllowReuse("vc1", "job-"+string(rune('a'+i%26))+string(rune('0'+i/26))) {
			denied++
		}
	}
	if denied != 50 {
		t.Fatalf("killed VC admitted %d/50 jobs", 50-denied)
	}
	// Other VCs unaffected.
	if !g.AllowReuse("vc2", "j") {
		t.Fatal("kill leaked to another VC")
	}
	// Quiet cooldown: days 2,3 pass, ramp starts on day 3 (killedDay=1+2).
	g.EndOfDay(2)
	d := g.EndOfDay(3)
	if len(d) == 0 || d[0].Kind != "vc-ramp" {
		t.Fatalf("expected vc-ramp after cooldown, got %v", d)
	}
	// Each clean day moves one stage up (1% → 10% → 100%): the same jobs are
	// admitted by seeded hash, more of them at each stage.
	admitted := func() int {
		n := 0
		for i := 0; i < 1000; i++ {
			if g.AllowReuse("vc1", fmt.Sprintf("job-%d", i)) {
				n++
			}
		}
		return n
	}
	prev := 0
	for stage, day := range []int{4, 5} {
		n := admitted()
		if n <= prev || n == 1000 {
			t.Fatalf("ramp stage %d admitted %d/1000 (stage before: %d), want a growing partial share", stage, n, prev)
		}
		prev = n
		if d = g.EndOfDay(day); len(d) != 1 || d[0].Kind != "vc-ramp" {
			t.Fatalf("day %d: expected the next vc-ramp stage, got %v", day, d)
		}
	}
	if n := admitted(); n != 1000 {
		t.Fatalf("last ramp stage admitted %d/1000, want all", n)
	}
	// One more clean day completes the ramp.
	d = g.EndOfDay(6)
	if len(d) == 0 || d[len(d)-1].Kind != "vc-restore" {
		t.Fatalf("expected vc-restore, got %v", d)
	}
	if !g.AllowReuse("vc1", "any-job") {
		t.Fatal("restored VC still denying")
	}
}

func TestVCRampAbortsOnFallbackSpike(t *testing.T) {
	g := testGuard(Config{})
	stormDays(g, "vc1", 0, 2) // kill on day 1
	g.EndOfDay(2)
	if d := g.EndOfDay(3); len(d) != 1 || d[0].Kind != "vc-ramp" { // ramp starts
		t.Fatalf("expected vc-ramp after cooldown, got %v", d)
	}
	// Storm continues during the ramp: re-kill, not restore.
	stormDays(g, "vc1", 4, 5)
	log := g.RenderLog()
	if !strings.Contains(log, "[vc-rekill] vc1") {
		t.Fatalf("ramp under continued storm did not re-kill:\n%s", log)
	}
}

func TestGuardDecisionLogByteIdentical(t *testing.T) {
	run := func() string {
		g := testGuard(Config{})
		for day := 0; day < 8; day++ {
			for _, vc := range []string{"vc-a", "vc-b", "vc-c"} {
				bad := day >= 2 && day < 5 && vc == "vc-b"
				sig := signature.Sig("s-" + vc)
				for i := 0; i < 6; i++ {
					g.ObserveJob(day, vc, "j", []ViewOutcome{{Recurring: sig, SavedSec: 2, FellBack: bad}})
				}
			}
			g.EndOfDay(day)
		}
		return g.RenderLog()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different decision logs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("scenario produced no decisions — vacuous")
	}
}

func TestGuardAdminForceAndMetrics(t *testing.T) {
	g := testGuard(Config{})
	reg := obs.NewRegistry()
	g.SetMetrics(reg)
	sig := signature.Sig("sig-adm")

	g.TripBreaker(0, sig)
	if g.AllowMatch("vc1", "j", sig) {
		t.Fatal("forced-open breaker admitted")
	}
	// Forced breakers never half-open on their own.
	g.EndOfDay(0)
	g.EndOfDay(1)
	g.EndOfDay(2)
	if g.AllowMatch("vc1", "j", sig) {
		t.Fatal("forced breaker half-opened by cooldown")
	}
	g.ResetBreaker(3, sig)
	if !g.AllowMatch("vc1", "j", sig) {
		t.Fatal("reset breaker still denying")
	}

	g.KillVC(3, "vc1")
	if g.AllowReuse("vc1", "j") {
		t.Fatal("forced-killed VC admitted")
	}
	g.EndOfDay(3)
	g.EndOfDay(4)
	g.EndOfDay(5)
	if g.AllowReuse("vc1", "j") {
		t.Fatal("forced kill ramped back by cooldown")
	}
	g.RestoreVC(6, "vc1")
	if !g.AllowReuse("vc1", "j") {
		t.Fatal("restored VC still denying")
	}

	export := reg.ExportString()
	for _, want := range []string{
		"cloudviews_guard_breaker_trips_total 1",
		"cloudviews_guard_vc_kills_total 1",
		"cloudviews_guard_vc_restores_total 1",
	} {
		if !strings.Contains(export, want) {
			t.Errorf("metrics export missing %q", want)
		}
	}

	snap := g.Snapshot()
	if len(snap.Breakers) != 1 || len(snap.VCs) != 1 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	if len(snap.Decisions) == 0 {
		t.Fatal("snapshot decisions empty")
	}
}

func TestGuardSampleGauges(t *testing.T) {
	g := testGuard(Config{})
	feedDay(g, 0, "vc1", "sig-a", 0, 3)
	g.KillVC(0, "vc2")
	m := map[string]float64{}
	g.Sample(m)
	if m["guard_breakers_open"] != 1 {
		t.Fatalf("guard_breakers_open = %v, want 1", m["guard_breakers_open"])
	}
	if m["guard_vcs_killed"] != 1 {
		t.Fatalf("guard_vcs_killed = %v, want 1", m["guard_vcs_killed"])
	}
	if m["guard_decisions"] == 0 {
		t.Fatal("guard_decisions = 0")
	}
}

package cloudviews_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudviews"
	"cloudviews/internal/fixtures"
)

// The guard chaos proof: two VCs with disjoint datasets run the same
// recurring workload for twelve simulated days while a seeded
// storage.view.read storm corrupts every read of vc-a's view artifacts for
// days 4..7. The guarded system must
//
//   - quarantine vc-a's stormed views within the storm's first day (eager
//     intra-day breaker trips) and re-ramp after the storm passes,
//   - never sacrifice correctness: every answer is byte-identical to a
//     fault-free oracle system running the identical workload,
//   - never let vc-a's storm leak: vc-b's breakers never trip, its kill
//     switch never fires, and no alert names it,
//   - decide deterministically: two runs produce byte-identical decision
//     logs (the CI guard suite repeats this under -race).

const (
	guardChaosDays       = 12
	guardChaosStormFrom  = 4 // first storm day
	guardChaosStormUntil = 8 // first post-storm day
)

// guardChaosArm is one system plus the storm flag its fault filter watches.
type guardChaosArm struct {
	sys   *cloudviews.System
	storm bool
}

// newGuardChaosArm builds a two-VC system over disjoint datasets. guarded
// enables the guard subsystem; stormed installs the vc-a view-read storm.
func newGuardChaosArm(t *testing.T, guarded, stormed bool) *guardChaosArm {
	t.Helper()
	arm := &guardChaosArm{}
	cfg := cloudviews.Config{
		ClusterName: "guard-chaos",
		Capacity:    200,
		// MinFallbacks 1: this workload reuses each view only once or twice
		// a day, so the breaker must trip on the first bad read to
		// quarantine within the storm's first day.
		Guard: cloudviews.GuardConfig{Enabled: guarded, BreakerMinFallbacks: 1},
	}
	if stormed {
		cfg.Faults = cloudviews.FaultConfig{
			Seed:  23,
			Rates: map[cloudviews.FaultPoint]float64{"storage.view.read": 1},
			Filter: func(p cloudviews.FaultPoint, key string) bool {
				return arm.storm && strings.Contains(key, "/vc-a/")
			},
		}
	}
	sys, err := cloudviews.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	arm.sys = sys

	for _, ds := range []string{"EventsA", "EventsB"} {
		schema := cloudviews.Schema{
			{Name: "Id", Kind: cloudviews.KindInt},
			{Name: "Region", Kind: cloudviews.KindString},
			{Name: "Value", Kind: cloudviews.KindFloat},
		}
		if err := sys.DefineDataset(ds, schema); err != nil {
			t.Fatal(err)
		}
		tb := &cloudviews.Table{Schema: schema}
		regions := []string{"us", "eu", "asia"}
		salt := int64(0)
		if ds == "EventsB" {
			salt = 7 // disjoint content, not just disjoint names
		}
		for i := 0; i < 240; i++ {
			tb.Append(cloudviews.Row{
				cloudviews.Int(int64(i) + salt),
				cloudviews.String(regions[(i+int(salt))%3]),
				cloudviews.Float(float64((i + int(salt)) % 83)),
			})
		}
		if err := sys.PublishDataset(ds, tb); err != nil {
			t.Fatal(err)
		}
		sys.SetScaleFactor(ds, 20_000)
	}
	sys.OnboardVC("vc-a")
	sys.OnboardVC("vc-b")
	return arm
}

// guardChaosScript builds job i's script for one VC: a shared filtered scan
// (the recurring subexpression analysis will materialize) under one of two
// outer aggregates.
func guardChaosScript(dataset string, i int) string {
	inner := fmt.Sprintf(`p = SELECT * FROM %s WHERE Value > %d;`, dataset, 10*(i%3))
	if i%2 == 0 {
		return inner + `
r = SELECT Region, COUNT(*) AS n FROM p GROUP BY Region;
OUTPUT r TO "out/r";`
	}
	return inner + `
r = SELECT Region, SUM(Value) AS s FROM p GROUP BY Region;
OUTPUT r TO "out/r";`
}

// runGuardChaosDay pushes one day through the arm: the scheduled batch, the
// analysis pass, then one probe job per VC whose output fingerprint is the
// correctness sample. Returns the day metrics and probe fingerprints keyed
// by VC.
func (arm *guardChaosArm) runDay(t *testing.T, day int) (cloudviews.DayMetrics, map[string]string) {
	t.Helper()
	arm.storm = day >= guardChaosStormFrom && day < guardChaosStormUntil
	date := fixtures.Epoch.AddDate(0, 0, day)
	var jobs []cloudviews.Job
	for _, vc := range []string{"vc-a", "vc-b"} {
		ds := "EventsA"
		if vc == "vc-b" {
			ds = "EventsB"
		}
		for i := 0; i < 6; i++ {
			jobs = append(jobs, cloudviews.Job{
				ID:       fmt.Sprintf("d%02d-%s-%d", day, vc, i),
				VC:       vc,
				Pipeline: vc + "-pipe",
				Script:   guardChaosScript(ds, i),
				Submit:   date.Add(time.Duration(i) * time.Minute),
			})
		}
	}
	m, err := arm.sys.RunDay(day, jobs)
	if err != nil {
		t.Fatalf("day %d: %v", day, err)
	}
	arm.sys.Analyze(72 * time.Hour)

	probes := make(map[string]string)
	for _, vc := range []string{"vc-a", "vc-b"} {
		ds := "EventsA"
		if vc == "vc-b" {
			ds = "EventsB"
		}
		res, err := arm.sys.SubmitScript(cloudviews.Job{
			ID: fmt.Sprintf("probe-d%02d-%s", day, vc), VC: vc,
			Script: guardChaosScript(ds, 0),
			Submit: date.Add(23 * time.Hour),
		})
		if err != nil {
			t.Fatalf("probe day %d %s: %v", day, vc, err)
		}
		probes[vc] = res.Output.Fingerprint()
	}
	return m, probes
}

// runGuardChaos drives a full window and collects per-day metrics + probes.
func runGuardChaos(t *testing.T, guarded, stormed bool) ([]cloudviews.DayMetrics, []map[string]string, *guardChaosArm) {
	arm := newGuardChaosArm(t, guarded, stormed)
	var days []cloudviews.DayMetrics
	var probes []map[string]string
	for day := 0; day < guardChaosDays; day++ {
		m, p := arm.runDay(t, day)
		days = append(days, m)
		probes = append(probes, p)
	}
	return days, probes, arm
}

func TestGuardChaosQuarantineRollbackAndIsolation(t *testing.T) {
	days, probes, arm := runGuardChaos(t, true, true)
	_, oracleProbes, _ := runGuardChaos(t, false, false)

	// The storm must bite: the guarded arm sees fallbacks on storm days
	// (otherwise every assertion below is vacuous).
	stormFB := 0
	for d := guardChaosStormFrom; d < guardChaosStormUntil; d++ {
		stormFB += days[d].ReuseFallbacks
	}
	if stormFB == 0 {
		t.Fatal("storm injected no reuse fallbacks; the scenario is vacuous")
	}

	// Correctness is never sacrificed: every probe answer — before, during,
	// and after the storm, on both VCs — is byte-identical to the fault-free
	// oracle's.
	for day := range probes {
		for vc, fp := range probes[day] {
			if fp != oracleProbes[day][vc] {
				t.Errorf("day %d %s: answer diverged from fault-free oracle", day, vc)
			}
		}
	}

	guard := arm.sys.Guard()
	log := guard.RenderLog()

	// Quarantine within bounded days: the first breaker trip lands on the
	// storm's first day (eager intra-day trips).
	firstTrip := -1
	for _, line := range strings.Split(log, "\n") {
		if strings.Contains(line, "breaker-trip") {
			fmt.Sscanf(line, "day %02d", &firstTrip)
			break
		}
	}
	if firstTrip != guardChaosStormFrom {
		t.Errorf("first breaker trip on day %d, want storm start day %d\nlog:\n%s",
			firstTrip, guardChaosStormFrom, log)
	}

	// Re-ramp after the storm: quarantined breakers half-open and close once
	// reads heal.
	if !strings.Contains(log, "breaker-halfopen") || !strings.Contains(log, "breaker-close") {
		t.Errorf("no post-storm re-ramp (halfopen+close) in decision log:\n%s", log)
	}

	// Isolation: the storm on vc-a's views never moves vc-b. No breaker
	// belongs to vc-b, its kill switch never fired, and no alert names it.
	snap := guard.Snapshot()
	for _, b := range snap.Breakers {
		if b.VC == "vc-b" && b.Trips > 0 {
			t.Errorf("vc-b breaker %s tripped during vc-a's storm", b.Sig)
		}
	}
	for _, vc := range snap.VCs {
		if vc.VC == "vc-b" && (vc.Kills > 0 || vc.State != "active") {
			t.Errorf("vc-b state %q kills %d; the storm leaked across VCs", vc.State, vc.Kills)
		}
	}
	for _, line := range strings.Split(log, "\n") {
		for _, kind := range []string{"[breaker-trip]", "[vc-kill]"} {
			if strings.Contains(line, kind) && strings.Contains(line, "vc-b") {
				t.Errorf("guard acted on the unstormed VC: %s", line)
			}
		}
	}
	for day := range days {
		for _, a := range days[day].Alerts {
			if strings.Contains(a.String(), "vc-b") {
				t.Errorf("day %d: alert names the unstormed VC: %s", day, a.String())
			}
		}
	}

	// Reuse recovers: by the end of the window the guarded arm is matching
	// views again with zero fallbacks.
	last := days[guardChaosDays-1]
	if last.ReuseFallbacks != 0 {
		t.Errorf("final day still has %d fallbacks; recovery incomplete", last.ReuseFallbacks)
	}
}

// TestGuardChaosDecisionLogByteIdentical: the same seed yields the same
// decisions, byte for byte. The CI guard suite runs this under -race too,
// so scheduler interleavings cannot influence guard state.
func TestGuardChaosDecisionLogByteIdentical(t *testing.T) {
	_, _, a := runGuardChaos(t, true, true)
	_, _, b := runGuardChaos(t, true, true)
	logA, logB := a.sys.Guard().RenderLog(), b.sys.Guard().RenderLog()
	if logA == "" {
		t.Fatal("empty decision log; the run exercised nothing")
	}
	if logA != logB {
		t.Fatalf("same seed, different decision logs:\n--- a ---\n%s\n--- b ---\n%s", logA, logB)
	}
}

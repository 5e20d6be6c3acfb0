package cloudviews_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"cloudviews"
)

// TestExplainTelemetryReconciliation is the provenance layer's ledger check:
// over a seeded multi-day workload, the fleet-wide per-day (and per-VC)
// miss-reason counters and reuse-saved seconds in telemetry must reconcile
// with the union of every job's structured explain decisions. If any
// decision point records without folding into telemetry — or telemetry
// counts something no job decided — the books don't balance and this fails.
// The second system crashes every attempt but the last, so each job runs
// fault.DefaultMaxJobAttempts times: only the final attempt's decisions
// stand, and only the reuse it banked may be credited.
func TestExplainTelemetryReconciliation(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		reconcileExplainTelemetry(t, demoSystem(t), 1)
	})
	t.Run("job-retries", func(t *testing.T) {
		sys := demoSystemWith(t, cloudviews.Config{
			ClusterName: "api-test", Capacity: 100,
			Faults: cloudviews.FaultConfig{Seed: 7, Rates: map[cloudviews.FaultPoint]float64{"core.job.fail": 1}},
		})
		reconcileExplainTelemetry(t, sys, 3)
	})
}

// reconcileExplainTelemetry runs the seeded workload on sys, whose jobs each
// run attempts times, and balances telemetry against the jobs' decisions.
func reconcileExplainTelemetry(t *testing.T, sys *cloudviews.System, attempts int) {
	sys.OnboardVC("vc1")
	sys.OnboardVC("vc2")
	// vc3 is never onboarded: its jobs run with reuse disabled and must show
	// up as policy-flight decisions, not silence.

	script := func(agg, out string) string {
		return fmt.Sprintf(`p = SELECT * FROM Events WHERE Value > 40;
			r = SELECT Region, %s FROM p GROUP BY Region;
			OUTPUT r TO "out/%s";`, agg, out)
	}
	pool := []string{
		script("COUNT(*) AS n", "n"),
		script("MAX(Value) AS m", "m"),
		script("SUM(Value) AS s", "s"),
		script("MIN(Value) AS lo", "lo"),
	}
	vcs := []string{"vc1", "vc2", "vc3"}

	type key struct {
		day    int
		vc     string
		reason string
	}
	type dayVC struct {
		day int
		vc  string
	}
	rng := rand.New(rand.NewSource(7))
	perJob := make(map[key]int) // union of per-job miss decisions
	forfeit := make(map[key]float64)
	saved := make(map[dayVC]float64) // banked by the jobs' matched decisions
	elapsed := time.Duration(0)
	jobs := 0

	const days, jobsPerDay = 3, 24
	for day := 0; day < days; day++ {
		for j := 0; j < jobsPerDay; j++ {
			jobs++
			vc := vcs[rng.Intn(len(vcs))]
			res, err := sys.SubmitScript(cloudviews.Job{
				ID:       fmt.Sprintf("recon-%03d", jobs),
				VC:       vc,
				Pipeline: "recon",
				Script:   pool[rng.Intn(len(pool))],
				OptOut:   rng.Intn(8) == 0, // sprinkle job-level opt-outs
			})
			if err != nil {
				t.Fatal(err)
			}
			retries := 0
			res.Trace.ForEachEvent(func(ev cloudviews.TraceEvent) {
				if ev.Kind == "job.retry" {
					retries++
				}
			})
			if retries != attempts-1 {
				t.Fatalf("job %s: %d job.retry events, want %d", res.ID, retries, attempts-1)
			}
			ds := res.Explain()
			if ds == nil {
				t.Fatalf("job %s: Explain() is nil on an observable system", res.ID)
			}
			var jobSaved float64
			for _, d := range ds {
				if d.VC != vc || d.JobID != res.ID {
					t.Fatalf("job %s: decision mis-stamped: %+v", res.ID, d)
				}
				if !cloudviews.ValidExplainReason(d.Reason) {
					t.Fatalf("job %s: reason %q outside the closed enum", res.ID, d.Reason)
				}
				if d.Reason == cloudviews.ReasonMatched {
					jobSaved += d.SavedCS
					continue
				}
				k := key{day, vc, string(d.Reason)}
				perJob[k]++
				if d.SavedCS > 0 {
					forfeit[k] += d.SavedCS
				}
			}
			saved[dayVC{day, vc}] += jobSaved
			step := time.Duration(1+rng.Intn(10)) * time.Minute
			sys.AdvanceClock(step)
			elapsed += step
		}
		sys.Analyze(26 * time.Hour)
		// Jump to the start of the next day.
		next := time.Duration(day+1) * 24 * time.Hour
		sys.AdvanceClock(next - elapsed)
		elapsed = next
	}

	if len(perJob) == 0 {
		t.Fatal("workload produced no miss decisions; the property test is vacuous")
	}
	if len(saved) == 0 {
		t.Fatal("workload matched no views; the saved-seconds check is vacuous")
	}

	rt := sys.Telemetry()
	if rt == nil {
		t.Fatal("telemetry snapshot is nil")
	}
	// Fold telemetry's per-day / per-VC counters into the same key space.
	tele := make(map[key]int)
	teleForfeit := make(map[key]float64)
	teleSaved := make(map[dayVC]float64)
	for _, d := range rt.Days {
		var vcSaved float64
		for vc, agg := range d.VCs {
			if agg.ReuseSavedSec != 0 {
				teleSaved[dayVC{d.Day, vc}] = agg.ReuseSavedSec
			}
			vcSaved += agg.ReuseSavedSec
			for r, n := range agg.MissReasons {
				tele[key{d.Day, vc, r}] = n
			}
			for r, cs := range agg.ForfeitSec {
				teleForfeit[key{d.Day, vc, r}] = cs
			}
		}
		// The day-level rollup must equal the sum of its VCs.
		if !closeTo(d.ReuseSavedSec, vcSaved) {
			t.Errorf("day %d: reuse saved %.4f != VC sum %.4f", d.Day, d.ReuseSavedSec, vcSaved)
		}
		for r, n := range d.MissReasons {
			sum := 0
			for _, agg := range d.VCs {
				sum += agg.MissReasons[r]
			}
			if sum != n {
				t.Errorf("day %d reason %q: day total %d != VC sum %d", d.Day, r, n, sum)
			}
		}
	}

	for k, n := range perJob {
		if tele[k] != n {
			t.Errorf("%+v: telemetry=%d, per-job union=%d", k, tele[k], n)
		}
	}
	for k := range tele {
		if perJob[k] == 0 {
			t.Errorf("%+v: telemetry counted %d decisions no job recorded", k, tele[k])
		}
	}
	for k, cs := range forfeit {
		if !closeTo(teleForfeit[k], cs) {
			t.Errorf("%+v: forfeited container-seconds telemetry=%.4f, per-job=%.4f", k, teleForfeit[k], cs)
		}
	}
	for k := range teleSaved {
		if _, ok := saved[k]; !ok {
			saved[k] = 0
		}
	}
	for k, cs := range saved {
		if !closeTo(teleSaved[k], cs) {
			t.Errorf("%+v: reuse saved container-seconds telemetry=%.4f, matched decisions=%.4f", k, teleSaved[k], cs)
		}
	}

	// The reason mix must be broad enough to mean something: the never-
	// onboarded VC contributes policy-flight, cold rounds contribute
	// no-annotation, and at least one more reason appears.
	reasons := make(map[string]bool)
	for k := range perJob {
		reasons[k.reason] = true
	}
	if !reasons[string(cloudviews.ReasonPolicyFlight)] {
		t.Error("no policy-flight decisions from the never-onboarded VC")
	}
	if !reasons[string(cloudviews.ReasonNoAnnotation)] {
		t.Error("no no-annotation decisions from cold rounds")
	}
	if len(reasons) < 3 {
		t.Errorf("only %d distinct miss reasons exercised: %v", len(reasons), reasons)
	}
}

// closeTo compares container-second totals summed in different orders.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

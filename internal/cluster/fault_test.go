package cluster_test

import (
	"strings"
	"testing"
	"time"

	"cloudviews/internal/cluster"
	"cloudviews/internal/fault"
	"cloudviews/internal/obs"
)

func faultSim(rates map[fault.Point]float64, seed uint64) *cluster.Simulator {
	sim := cluster.New(cluster.Config{Capacity: 100, VCs: []cluster.VCConfig{{Name: "vc1", Tokens: 10}}})
	sim.SetFaults(fault.New(fault.Config{Seed: seed, Rates: rates}))
	return sim
}

// TestStageRetryAddsBackoffAndWork: with stage failure at rate 1 every stage
// fails DefaultMaxStageAttempts-1 times (bounded by the per-job retry
// budget), each failed attempt charging half the stage's work and waiting out
// the backoff.
func TestStageRetryAddsBackoffAndWork(t *testing.T) {
	sim := faultSim(map[fault.Point]float64{fault.StageFail: 1}, 1)
	out, err := sim.Run([]cluster.JobSpec{simpleJob("j1", "vc1", t0, 100, 10)})
	if err != nil {
		t.Fatal(err)
	}
	o := out[0]
	wantRetries := fault.DefaultMaxStageAttempts - 1 // single stage, budget (8) not binding
	if o.StageRetries != wantRetries {
		t.Fatalf("stage retries = %d, want %d", o.StageRetries, wantRetries)
	}
	// Each failed attempt charges half the stage work.
	wantProcessing := 100.0 + float64(wantRetries)*50.0
	if o.Processing != wantProcessing {
		t.Errorf("processing = %g, want %g", o.Processing, wantProcessing)
	}
	// FaultDelay covers the wasted halves plus the backoff waits.
	var backoffs time.Duration
	for a := 1; a <= wantRetries; a++ {
		backoffs += fault.Backoff(a)
	}
	if o.FaultDelay < backoffs {
		t.Errorf("fault delay %v < backoff sum %v", o.FaultDelay, backoffs)
	}
	if o.Latency <= 10*time.Second {
		t.Errorf("latency %v not inflated by retries", o.Latency)
	}
}

// TestStageRetryBudgetBoundsFailures: a many-stage job under rate-1 stage
// failure stops retrying once the per-job budget is spent.
func TestStageRetryBudgetBoundsFailures(t *testing.T) {
	sim := faultSim(map[fault.Point]float64{fault.StageFail: 1}, 1)
	stages := make([]cluster.StageSpec, 10)
	for i := range stages {
		stages[i] = cluster.StageSpec{Work: 10, Width: 2}
	}
	out, err := sim.Run([]cluster.JobSpec{{ID: "j1", VC: "vc1", Submit: t0, Stages: stages}})
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].StageRetries; got != fault.DefaultStageRetryBudget {
		t.Fatalf("stage retries = %d, want budget %d", got, fault.DefaultStageRetryBudget)
	}
}

// TestBonusPreemptionRerunsOnGuaranteed: preempted bonus work is discarded,
// re-run on guaranteed tokens, and charged as both processing and bonus.
func TestBonusPreemptionRerunsOnGuaranteed(t *testing.T) {
	sim := faultSim(map[fault.Point]float64{fault.BonusPreempt: 1}, 1)
	// Width 20 over 10 tokens: 10 bonus containers on an idle cluster.
	out, err := sim.Run([]cluster.JobSpec{simpleJob("j1", "vc1", t0, 100, 20)})
	if err != nil {
		t.Fatal(err)
	}
	o := out[0]
	if o.BonusPreemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", o.BonusPreemptions)
	}
	// lost = (100/2) * 10/20 = 25 container-seconds redone on guaranteed.
	if o.Processing != 125 {
		t.Errorf("processing = %g, want 125", o.Processing)
	}
	if o.Bonus != 25 {
		t.Errorf("bonus = %g, want 25 (only the discarded share)", o.Bonus)
	}
	// Phase 1: 50 work over 20 containers = 2.5s; phase 2: 75 work over 10
	// guaranteed tokens = 7.5s; plus startup.
	if o.Latency < 10*time.Second {
		t.Errorf("latency = %v, want >= 10s recovery schedule", o.Latency)
	}
	if o.FaultDelay <= 0 {
		t.Errorf("fault delay = %v, want > 0", o.FaultDelay)
	}
	// A job with no bonus containers is never preempted.
	out2, err := sim.Run([]cluster.JobSpec{simpleJob("j2", "vc1", t0, 100, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if out2[0].BonusPreemptions != 0 || out2[0].Processing != 100 {
		t.Errorf("guaranteed-only job was preempted: %+v", out2[0])
	}
}

// TestFaultedScheduleDeterministic: same seed, same schedule; different seed,
// different fault placement (over enough jobs).
func TestFaultedScheduleDeterministic(t *testing.T) {
	mkJobs := func() []cluster.JobSpec {
		specs := make([]cluster.JobSpec, 40)
		for i := range specs {
			specs[i] = simpleJob(
				"j"+string(rune('A'+i%26))+string(rune('0'+i/26)), "vc1",
				t0.Add(time.Duration(i)*time.Second), float64(50+i), 5+i%10)
		}
		return specs
	}
	rates := map[fault.Point]float64{fault.StageFail: 0.3, fault.BonusPreempt: 0.3}
	simA := faultSim(rates, 7)
	simB := faultSim(rates, 7)
	outA, errA := simA.Run(mkJobs())
	outB, errB := simB.Run(mkJobs())
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("same seed diverged at %d:\n%+v\n%+v", i, outA[i], outB[i])
		}
	}
	simC := faultSim(rates, 8)
	outC, err := simC.Run(mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range outA {
		if outA[i] != outC[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// TestJobAttemptRerollsStageFaults: the job-level attempt is part of the
// stage decision key, so a retried job sees a fresh fault schedule.
func TestJobAttemptRerollsStageFaults(t *testing.T) {
	rates := map[fault.Point]float64{fault.StageFail: 0.5}
	sim := faultSim(rates, 3)
	var byAttempt []int
	for attempt := 1; attempt <= 2; attempt++ {
		stages := make([]cluster.StageSpec, 8)
		for i := range stages {
			stages[i] = cluster.StageSpec{Work: 10, Width: 2}
		}
		out, err := sim.Run([]cluster.JobSpec{{
			ID: "jr", VC: "vc1", Submit: t0, Stages: stages, Attempt: attempt,
		}})
		if err != nil {
			t.Fatal(err)
		}
		byAttempt = append(byAttempt, out[0].StageRetries)
	}
	if byAttempt[0] == byAttempt[1] {
		// Retry counts colliding is possible but unlikely across 8 stages at
		// rate 0.5; a stable collision would mean the attempt is ignored.
		sim2 := faultSim(rates, 4)
		out, err := sim2.Run([]cluster.JobSpec{{
			ID: "jr", VC: "vc1", Submit: t0,
			Stages: []cluster.StageSpec{{Work: 10, Width: 2}}, Attempt: 2,
		}})
		if err != nil || out == nil {
			t.Fatal(err)
		}
		t.Logf("attempt schedules collided (%d == %d); secondary check only", byAttempt[0], byAttempt[1])
	}
}

// TestZeroRateFaultedPathMatchesCleanPath: the one schedule function must
// reproduce the fault-free schedule exactly whenever no fault fires — with no
// injector, with only unrelated points enabled (no decision key rendered, no
// second schedule kept), and with the cluster points enabled at a rate that
// never fires (keys rendered, the fault-free shadow schedule kept and
// FaultDelay measured against it). The three arms must agree outcome for
// outcome on a queued day, each job scheduled alone must equal the fault-free
// reference (oracle_test.go), and fault metric families must not exist on a
// fault-free simulator.
func TestZeroRateFaultedPathMatchesCleanPath(t *testing.T) {
	mk := func() []cluster.JobSpec {
		specs := make([]cluster.JobSpec, 20)
		for i := range specs {
			specs[i] = cluster.JobSpec{
				ID: "z" + string(rune('a'+i)), VC: "vc1",
				Submit: t0.Add(time.Duration(i) * time.Second),
				Stages: []cluster.StageSpec{
					{Work: float64(30 + i), Width: 4 + i%12},
					{Work: 7.5, Width: i % 3},
					{Work: 10, Width: 2, Deps: []int{0}, IsSpool: i%3 == 0},
					{Work: float64(3 * i), Width: 30, Deps: []int{1, 2}},
				},
				Compile: 200 * time.Millisecond,
			}
		}
		return specs
	}
	clean := cluster.New(cluster.Config{Capacity: 100, VCs: []cluster.VCConfig{{Name: "vc1", Tokens: 10}}})
	cleanReg := obs.NewRegistry()
	clean.SetMetrics(cleanReg)
	// Only view-read faults enabled: the cluster-level points roll never.
	unrelated := faultSim(map[fault.Point]float64{fault.ViewRead: 1}, 1)
	// Both cluster points enabled, at a rate no roll falls under.
	never := faultSim(map[fault.Point]float64{fault.StageFail: 1e-300, fault.BonusPreempt: 1e-300}, 1)

	arms := []struct {
		name string
		sim  *cluster.Simulator
	}{{"no injector", clean}, {"unrelated points", unrelated}, {"rate that never fires", never}}
	var cleanOut []cluster.Outcome
	for _, arm := range arms {
		out, err := arm.sim.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		if cleanOut == nil {
			cleanOut = out
		}
		for i := range cleanOut {
			if cleanOut[i] != out[i] {
				t.Fatalf("%s: outcome %d diverged from the fault-free schedule:\n%+v\n%+v",
					arm.name, i, cleanOut[i], out[i])
			}
		}
		for _, spec := range mk() {
			alone, err := arm.sim.Run([]cluster.JobSpec{spec})
			if err != nil {
				t.Fatal(err)
			}
			if want := arm.sim.AloneClean(spec); alone[0] != want {
				t.Fatalf("%s: job %s alone diverged from the reference:\n got %+v\nwant %+v",
					arm.name, spec.ID, alone[0], want)
			}
		}
	}
	export := cleanReg.ExportString()
	for _, family := range []string{"cloudviews_stage_retries_total", "cloudviews_bonus_preemptions_total"} {
		if strings.Contains(export, family) {
			t.Errorf("fault-free export contains %s", family)
		}
	}
}

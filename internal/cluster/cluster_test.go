package cluster_test

import (
	"testing"
	"testing/quick"
	"time"

	"cloudviews/internal/cluster"
)

var t0 = time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

func simpleJob(id, vc string, submit time.Time, work float64, width int) cluster.JobSpec {
	return cluster.JobSpec{
		ID: id, VC: vc, Submit: submit,
		Stages: []cluster.StageSpec{{Work: work, Width: width}},
	}
}

func TestSingleJob(t *testing.T) {
	sim := cluster.New(cluster.Config{Capacity: 100, VCs: []cluster.VCConfig{{Name: "vc1", Tokens: 10}}})
	out, err := sim.Run([]cluster.JobSpec{simpleJob("j1", "vc1", t0, 100, 10)})
	if err != nil {
		t.Fatal(err)
	}
	o := out[0]
	if o.QueueWait != 0 {
		t.Errorf("queue wait = %v", o.QueueWait)
	}
	// 100 container-seconds over 10 containers ≈ 10s + startup.
	if o.Latency < 10*time.Second || o.Latency > 12*time.Second {
		t.Errorf("latency = %v, want ~10.5s", o.Latency)
	}
	if o.Processing != 100 {
		t.Errorf("processing = %g", o.Processing)
	}
	if o.Containers != 10 {
		t.Errorf("containers = %d", o.Containers)
	}
	if o.Bonus != 0 {
		t.Errorf("bonus = %g, want 0 (width within tokens)", o.Bonus)
	}
}

func TestQueueingFIFO(t *testing.T) {
	sim := cluster.New(cluster.Config{Capacity: 10, VCs: []cluster.VCConfig{{Name: "vc1", Tokens: 10}}})
	jobs := []cluster.JobSpec{
		simpleJob("j1", "vc1", t0, 100, 10),
		simpleJob("j2", "vc1", t0.Add(time.Second), 100, 10),
		simpleJob("j3", "vc1", t0.Add(2*time.Second), 100, 10),
	}
	out, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if out[1].QueueWait <= 0 || out[2].QueueWait <= out[1].QueueWait {
		t.Errorf("queue waits should grow: %v %v %v", out[0].QueueWait, out[1].QueueWait, out[2].QueueWait)
	}
	if out[0].QueueLenAtStart != 0 || out[1].QueueLenAtStart != 1 || out[2].QueueLenAtStart != 2 {
		t.Errorf("queue lengths = %d %d %d", out[0].QueueLenAtStart, out[1].QueueLenAtStart, out[2].QueueLenAtStart)
	}
	if !out[1].Start.After(out[0].End.Add(-time.Millisecond)) {
		t.Error("j2 must start after j1 completes (tokens exhausted)")
	}
}

func TestVCIsolation(t *testing.T) {
	sim := cluster.New(cluster.Config{Capacity: 100, VCs: []cluster.VCConfig{
		{Name: "vc1", Tokens: 10}, {Name: "vc2", Tokens: 10},
	}})
	jobs := []cluster.JobSpec{
		simpleJob("j1", "vc1", t0, 1000, 10),
		simpleJob("j2", "vc2", t0.Add(time.Second), 10, 10),
	}
	out, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if out[1].QueueWait != 0 {
		t.Errorf("vc2 job must not queue behind vc1: %v", out[1].QueueWait)
	}
}

func TestBonusAllocation(t *testing.T) {
	// Width 50 but only 10 guaranteed tokens; idle capacity provides bonus.
	sim := cluster.New(cluster.Config{Capacity: 100, VCs: []cluster.VCConfig{{Name: "vc1", Tokens: 10}}})
	out, err := sim.Run([]cluster.JobSpec{simpleJob("j1", "vc1", t0, 500, 50)})
	if err != nil {
		t.Fatal(err)
	}
	o := out[0]
	if o.Bonus <= 0 {
		t.Fatal("expected bonus processing")
	}
	// 40 of 50 containers are bonus → 80% of work.
	if o.Bonus < 350 || o.Bonus > 450 {
		t.Errorf("bonus = %g, want ~400", o.Bonus)
	}
	if o.Containers != 50 {
		t.Errorf("containers = %d", o.Containers)
	}
}

func TestBonusLimitedByCapacity(t *testing.T) {
	// Busy cluster: no idle capacity, so the wide stage runs on tokens only.
	sim := cluster.New(cluster.Config{Capacity: 10, VCs: []cluster.VCConfig{{Name: "vc1", Tokens: 10}}})
	out, err := sim.Run([]cluster.JobSpec{simpleJob("j1", "vc1", t0, 500, 50)})
	if err != nil {
		t.Fatal(err)
	}
	o := out[0]
	if o.Bonus != 0 {
		t.Errorf("bonus = %g, want 0 on a full cluster", o.Bonus)
	}
	// 500 work over 10 containers = 50s.
	if o.Latency < 50*time.Second {
		t.Errorf("latency = %v, want >= 50s", o.Latency)
	}
}

func TestStageDAGCriticalPath(t *testing.T) {
	sim := cluster.New(cluster.Config{Capacity: 100, VCs: []cluster.VCConfig{{Name: "vc1", Tokens: 10}}})
	// Two independent 10s stages feeding a 10s stage: critical path ~21s
	// (two stages plus their 0.5s startups), not 31.5s.
	job := cluster.JobSpec{
		ID: "j1", VC: "vc1", Submit: t0,
		Stages: []cluster.StageSpec{
			{Work: 100, Width: 10},
			{Work: 100, Width: 10},
			{Work: 100, Width: 10, Deps: []int{0, 1}},
		},
	}
	out, err := sim.Run([]cluster.JobSpec{job})
	if err != nil {
		t.Fatal(err)
	}
	lat := out[0].Latency
	if lat < 19*time.Second || lat > 22*time.Second {
		t.Errorf("latency = %v, want ~20s (parallel branches)", lat)
	}
	if out[0].Processing != 300 {
		t.Errorf("processing = %g, want 300", out[0].Processing)
	}
}

func TestSpoolOffCriticalPath(t *testing.T) {
	sim := cluster.New(cluster.Config{Capacity: 100, VCs: []cluster.VCConfig{{Name: "vc1", Tokens: 10}}})
	base := cluster.JobSpec{
		ID: "base", VC: "vc1", Submit: t0,
		Stages: []cluster.StageSpec{
			{Work: 100, Width: 10},
			{Work: 100, Width: 10, Deps: []int{0}},
		},
	}
	withSpool := cluster.JobSpec{
		ID: "spool", VC: "vc1", Submit: t0,
		Stages: []cluster.StageSpec{
			{Work: 100, Width: 10},
			{Work: 100, Width: 10, Deps: []int{0}},
			{Work: 500, Width: 10, Deps: []int{0}, IsSpool: true}, // big view write
		},
	}
	o1, err := sim.Run([]cluster.JobSpec{base})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := sim.Run([]cluster.JobSpec{withSpool})
	if err != nil {
		t.Fatal(err)
	}
	if o2[0].Latency != o1[0].Latency {
		t.Errorf("spool stage must not extend the critical path: %v vs %v", o2[0].Latency, o1[0].Latency)
	}
	if o2[0].Processing <= o1[0].Processing {
		t.Error("spool work must still be charged to processing time")
	}
}

func TestCompileLatencyCharged(t *testing.T) {
	sim := cluster.New(cluster.Config{Capacity: 100, VCs: []cluster.VCConfig{{Name: "vc1", Tokens: 10}}})
	j := simpleJob("j1", "vc1", t0, 10, 1)
	j.Compile = 2 * time.Second
	out, err := sim.Run([]cluster.JobSpec{j})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Latency < 12*time.Second {
		t.Errorf("latency = %v, want >= 12s (compile + run)", out[0].Latency)
	}
}

func TestOnStartCallback(t *testing.T) {
	sim := cluster.New(cluster.Config{Capacity: 100, VCs: []cluster.VCConfig{{Name: "vc1", Tokens: 10}}})
	var started time.Time
	j := simpleJob("j1", "vc1", t0, 10, 1)
	j.OnStart = func(s time.Time) { started = s }
	if _, err := sim.Run([]cluster.JobSpec{j}); err != nil {
		t.Fatal(err)
	}
	if !started.Equal(t0) {
		t.Errorf("OnStart = %v, want %v", started, t0)
	}
}

func TestEmptyStagesRejected(t *testing.T) {
	sim := cluster.New(cluster.Config{})
	if _, err := sim.Run([]cluster.JobSpec{{ID: "bad", VC: "v", Submit: t0}}); err == nil {
		t.Error("expected error for job without stages")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []cluster.JobSpec {
		var jobs []cluster.JobSpec
		for i := 0; i < 50; i++ {
			jobs = append(jobs, simpleJob(
				string(rune('a'+i%26))+string(rune('0'+i/26)), "vc1",
				t0.Add(time.Duration(i%7)*time.Second), float64(10+i), 5))
		}
		return jobs
	}
	sim := cluster.New(cluster.Config{Capacity: 20, VCs: []cluster.VCConfig{{Name: "vc1", Tokens: 15}}})
	o1, err := sim.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	// The same specs handed over in the opposite order (jobs finish in any
	// order on the concurrent data plane): Run orders them by (Submit, ID).
	reversed := mk()
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	o2, err := sim.Run(reversed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("outcome %d depends on the order the specs were handed over in", i)
		}
	}
}

// Conservation: total processing equals the sum of submitted work.
func TestWorkConservation(t *testing.T) {
	sim := cluster.New(cluster.Config{Capacity: 30, VCs: []cluster.VCConfig{{Name: "vc1", Tokens: 10}, {Name: "vc2", Tokens: 10}}})
	var jobs []cluster.JobSpec
	var want float64
	for i := 0; i < 20; i++ {
		vc := "vc1"
		if i%2 == 0 {
			vc = "vc2"
		}
		w := float64(10 * (i + 1))
		want += w
		jobs = append(jobs, simpleJob(string(rune('a'+i)), vc, t0.Add(time.Duration(i)*time.Second), w, 8))
	}
	out, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	for _, o := range out {
		got += o.Processing
		if o.Bonus > o.Processing {
			t.Errorf("job %s bonus %g exceeds processing %g", o.ID, o.Bonus, o.Processing)
		}
	}
	if got != want {
		t.Errorf("processing sum = %g, want %g", got, want)
	}
	if len(out) != len(jobs) {
		t.Errorf("outcomes = %d, want %d", len(out), len(jobs))
	}
}

// Property: for random job mixes, processing is conserved, bonus never
// exceeds processing, and every job eventually completes with End >= Start.
func TestRandomizedInvariants(t *testing.T) {
	f := func(seed uint16) bool {
		rng := uint64(seed)*2654435761 + 1
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(n))
		}
		sim := cluster.New(cluster.Config{
			Capacity: 20 + next(100),
			VCs: []cluster.VCConfig{
				{Name: "a", Tokens: 5 + next(20)},
				{Name: "b", Tokens: 5 + next(20)},
			},
		})
		var jobs []cluster.JobSpec
		var want float64
		n := 5 + next(30)
		for i := 0; i < n; i++ {
			vc := "a"
			if next(2) == 1 {
				vc = "b"
			}
			stages := 1 + next(3)
			spec := cluster.JobSpec{
				ID: string(rune('a'+i%26)) + string(rune('0'+i/26)), VC: vc,
				Submit: t0.Add(time.Duration(next(3600)) * time.Second),
			}
			for s := 0; s < stages; s++ {
				w := float64(1 + next(200))
				want += w
				st := cluster.StageSpec{Work: w, Width: 1 + next(60)}
				if s > 0 {
					st.Deps = []int{s - 1}
				}
				spec.Stages = append(spec.Stages, st)
			}
			jobs = append(jobs, spec)
		}
		out, err := sim.Run(jobs)
		if err != nil || len(out) != n {
			return false
		}
		var got float64
		for _, o := range out {
			got += o.Processing
			if o.Bonus > o.Processing+1e-9 {
				return false
			}
			if o.End.Before(o.Start) || o.Start.Before(o.Submit) {
				return false
			}
			if o.QueueWait < 0 {
				return false
			}
		}
		return got > want-1e-6 && got < want+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

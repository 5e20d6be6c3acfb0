package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/core"
	"cloudviews/internal/data"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/workload"
)

// The concurrency stress suite: N goroutines submit M recurring jobs across
// four virtual clusters and the results must be byte-identical to running
// the very same jobs serially on an identical engine. Reuse hit counts may
// legitimately differ WHILE views are being built (a view seals at a
// simulated time, and concurrent submission can observe a later clock than
// serial), but once every view is sealed the counts must converge exactly.
// Run under `go test -race` this doubles as the data-race gate for the
// whole submission pipeline.

var stressVCs = []string{"vc-a", "vc-b", "vc-c", "vc-d"}

// stressTemplates are the recurring scripts. Each parameterizes to the same
// strict signature on every submission, so repeated runs are view-reuse
// candidates (the paper's recurring-job pattern).
var stressTemplates = []string{
	`p = SELECT * FROM Events WHERE Value > 40;
	 r = SELECT Region, COUNT(*) AS n, SUM(Value) AS s FROM p GROUP BY Region;
	 OUTPUT r TO "out/a";`,
	`p = SELECT * FROM Events WHERE Value > 40;
	 q = SELECT Id, Value * 2.0 AS v2 FROM p;
	 OUTPUT q TO "out/b";`,
	`j = SELECT e.Region AS Region, e.Value AS Value, d.Weight AS Weight
	     FROM Events AS e JOIN Dims AS d ON e.Region = d.Region;
	 r = SELECT Region, SUM(Value) AS sv, MAX(Weight) AS mw FROM j GROUP BY Region;
	 OUTPUT r TO "out/c";`,
}

// stressWorld builds one engine over a deterministic two-table catalog. Both
// the serial baseline and the concurrent engine call this with the same
// inputs, so they start bit-for-bit identical.
func stressWorld(t *testing.T) *core.Engine {
	t.Helper()
	cat := catalog.New()
	events := data.Schema{
		{Name: "Id", Kind: data.KindInt},
		{Name: "Region", Kind: data.KindString},
		{Name: "Value", Kind: data.KindFloat},
	}
	dims := data.Schema{
		{Name: "Region", Kind: data.KindString},
		{Name: "Weight", Kind: data.KindFloat},
	}
	if _, err := cat.Define("Events", events); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Define("Dims", dims); err != nil {
		t.Fatal(err)
	}
	regions := []string{"us", "eu", "asia", "latam", "mea"}
	tb := data.NewTable(events)
	for i := 0; i < 3000; i++ {
		tb.Append(data.Row{
			data.Int(int64(i)),
			data.String_(regions[i%len(regions)]),
			data.Float(float64((i * 37) % 97)),
		})
	}
	if _, err := cat.BulkUpdate("Events", fixtures.Epoch, tb); err != nil {
		t.Fatal(err)
	}
	db := data.NewTable(dims)
	for i, r := range regions {
		db.Append(data.Row{data.String_(r), data.Float(float64(i) + 0.5)})
	}
	if _, err := cat.BulkUpdate("Dims", fixtures.Epoch, db); err != nil {
		t.Fatal(err)
	}
	cat.SetScaleFactor("Events", 50_000)
	eng := core.NewEngine(core.Config{
		ClusterName: "stress",
		Catalog:     cat,
		ClusterCfg:  cluster.Config{Capacity: 400},
		Selection:   analysis.SelectionConfig{UseBigSubs: true},
	})
	for _, vc := range stressVCs {
		eng.OnboardVC(vc)
	}
	return eng
}

// stressJobs builds one round of recurring jobs: `repeats` submissions of
// every template on every VC, with submit times spread inside a one-hour
// window starting at base. Job IDs and submit times are deterministic, so
// two engines given the same round see exactly the same inputs.
func stressJobs(round string, base time.Time, repeats int) []workload.JobInput {
	var jobs []workload.JobInput
	i := 0
	for rep := 0; rep < repeats; rep++ {
		for vi, vc := range stressVCs {
			for ti, script := range stressTemplates {
				jobs = append(jobs, workload.JobInput{
					ID:       fmt.Sprintf("%s-%s-t%d-r%d", round, vc, ti, rep),
					Cluster:  "stress",
					VC:       vc,
					Pipeline: fmt.Sprintf("pipe-%d", ti),
					Runtime:  "scope-r1",
					Script:   script,
					Submit:   base.Add(time.Duration(i*7+vi) * time.Second),
					OptIn:    true,
				})
				i++
			}
		}
	}
	return jobs
}

// runSerial executes jobs in slice order on one goroutine.
func runSerial(t *testing.T, eng *core.Engine, jobs []workload.JobInput) map[string]*core.JobRun {
	t.Helper()
	out := make(map[string]*core.JobRun, len(jobs))
	for _, in := range jobs {
		run, err := eng.CompileAndExecute(in)
		if err != nil {
			t.Fatalf("serial %s: %v", in.ID, err)
		}
		out[in.ID] = run
	}
	return out
}

// runConcurrent executes jobs with `workers` goroutines pulling from a
// deterministically shuffled queue, so the submission interleaving bears no
// resemblance to the serial order.
func runConcurrent(t *testing.T, eng *core.Engine, jobs []workload.JobInput, workers int, shuffleSeed int64) map[string]*core.JobRun {
	t.Helper()
	shuffled := make([]workload.JobInput, len(jobs))
	copy(shuffled, jobs)
	rng := rand.New(rand.NewSource(shuffleSeed))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	ch := make(chan workload.JobInput)
	var mu sync.Mutex
	out := make(map[string]*core.JobRun, len(jobs))
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for in := range ch {
				run, err := eng.CompileAndExecute(in)
				if err != nil {
					errCh <- fmt.Errorf("concurrent %s: %w", in.ID, err)
					return
				}
				mu.Lock()
				out[in.ID] = run
				mu.Unlock()
			}
		}()
	}
	for _, in := range shuffled {
		ch <- in
	}
	close(ch)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return out
}

func TestConcurrentSubmissionMatchesSerial(t *testing.T) {
	serialEng := stressWorld(t)
	concEng := stressWorld(t)

	// Phase 0 (both engines, serial, identical): record the recurring
	// workload and run the feedback loop so both engines carry the same
	// view-selection annotations.
	prime := stressJobs("prime", fixtures.Epoch, 3)
	runSerial(t, serialEng, prime)
	runSerial(t, concEng, prime)
	window := fixtures.Epoch.Add(-time.Hour)
	wEnd := fixtures.Epoch.Add(24 * time.Hour)
	serialEng.RunAnalysis(window, wEnd)
	concEng.RunAnalysis(window, wEnd)

	// Phase 1: the same round of recurring jobs, serial vs 8-way concurrent
	// in scrambled order. Views get built during this round, so reuse
	// TIMING may differ — but every job's output must be byte-identical
	// (equal strict signatures imply equal bytes; reuse can change cost,
	// never answers).
	round1 := stressJobs("r1", fixtures.Epoch.Add(2*time.Hour), 4)
	sr1 := runSerial(t, serialEng, round1)
	cr1 := runConcurrent(t, concEng, round1, 8, 42)
	for _, in := range round1 {
		s, c := sr1[in.ID], cr1[in.ID]
		if sf, cf := s.Exec.Table.Fingerprint(), c.Exec.Table.Fingerprint(); sf != cf {
			t.Errorf("round1 %s: output diverges from serial baseline", in.ID)
		}
	}

	// Phase 2: one hour later every view proposed in round 1 has sealed on
	// both engines, so reuse decisions are no longer timing-dependent: hit
	// counts must converge EXACTLY, job by job.
	round2 := stressJobs("r2", fixtures.Epoch.Add(4*time.Hour), 2)
	sr2 := runSerial(t, serialEng, round2)
	cr2 := runConcurrent(t, concEng, round2, 8, 1042)
	var serialHits, concHits int
	for _, in := range round2 {
		s, c := sr2[in.ID], cr2[in.ID]
		if sf, cf := s.Exec.Table.Fingerprint(), c.Exec.Table.Fingerprint(); sf != cf {
			t.Errorf("round2 %s: output diverges from serial baseline", in.ID)
		}
		if sm, cm := len(s.Compile.Matched), len(c.Compile.Matched); sm != cm {
			t.Errorf("round2 %s: reuse hits did not converge: serial=%d concurrent=%d", in.ID, sm, cm)
		}
		serialHits += len(s.Compile.Matched)
		concHits += len(c.Compile.Matched)
	}
	if serialHits == 0 {
		t.Error("round2 produced no reuse at all — priming is broken and the convergence assertion is vacuous")
	}
	if serialHits != concHits {
		t.Errorf("round2 total reuse hits: serial=%d concurrent=%d", serialHits, concHits)
	}

	// The repositories saw the same jobs (in different orders).
	if s, c := serialEng.Repo.Len(), concEng.Repo.Len(); s != c {
		t.Errorf("repository sizes diverge: serial=%d concurrent=%d", s, c)
	}
}

// TestConcurrentMixedVCAdmin races submissions against VC offboarding and
// dataset rescaling — admin-plane calls that mutate shared state mid-flight.
// There is no equivalence baseline here; the assertion is "no race, no
// crash, every surviving job still answers correctly for its inputs".
func TestConcurrentMixedVCAdmin(t *testing.T) {
	eng := stressWorld(t)
	jobs := stressJobs("mix", fixtures.Epoch, 6)

	var wg sync.WaitGroup
	ch := make(chan workload.JobInput)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for in := range ch {
				if _, err := eng.CompileAndExecute(in); err != nil {
					t.Errorf("%s: %v", in.ID, err)
				}
			}
		}()
	}
	// Admin goroutine: rescale datasets and toggle a VC while jobs fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			eng.Catalog.SetScaleFactor("Events", float64(10_000*(i%5+1)))
			if i%10 == 9 {
				eng.OffboardVC("vc-d")
				eng.OnboardVC("vc-d")
			}
		}
	}()
	for _, in := range jobs {
		ch <- in
	}
	close(ch)
	wg.Wait()

	if eng.Repo.Len() != len(jobs) {
		t.Errorf("repo has %d jobs, want %d", eng.Repo.Len(), len(jobs))
	}
}

package cloudviews_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cloudviews"
	"cloudviews/internal/storage"
	"cloudviews/internal/storage/durable"
)

// durableSystem builds a demo system backed by a file-based durable engine
// rooted at dir. The returned system owns the demo dataset; the caller owns
// closing both the system and the engine (or deliberately not closing the
// engine, to simulate a hard kill).
func durableSystem(t *testing.T, dir string, faults cloudviews.FaultConfig) (*cloudviews.System, *durable.Engine) {
	t.Helper()
	eng, err := durable.Open(dir)
	if err != nil {
		t.Fatalf("open durable engine: %v", err)
	}
	sys, err := cloudviews.NewSystem(cloudviews.Config{
		ClusterName:   "durable-test",
		Capacity:      100,
		StorageEngine: eng,
		Faults:        faults,
	})
	if err != nil {
		t.Fatalf("new system: %v", err)
	}
	schema := cloudviews.Schema{
		{Name: "Id", Kind: cloudviews.KindInt},
		{Name: "Region", Kind: cloudviews.KindString},
		{Name: "Value", Kind: cloudviews.KindFloat},
	}
	if err := sys.DefineDataset("Events", schema); err != nil {
		t.Fatal(err)
	}
	tb := &cloudviews.Table{Schema: schema}
	regions := []string{"us", "eu", "asia"}
	for i := 0; i < 300; i++ {
		tb.Append(cloudviews.Row{
			cloudviews.Int(int64(i)),
			cloudviews.String(regions[i%3]),
			cloudviews.Float(float64(i % 97)),
		})
	}
	if err := sys.PublishDataset("Events", tb); err != nil {
		t.Fatal(err)
	}
	sys.SetScaleFactor("Events", 10_000)
	for i := 0; i < 3; i++ {
		sys.OnboardVC(fmt.Sprintf("vc%d", i))
	}
	return sys, eng
}

// TestDurableSystemConcurrentSubmitters drives the durable engine through the
// full async submission pipeline under -race: concurrent workers per VC, all
// writes funneled through the WAL, and a settled system afterwards.
func TestDurableSystemConcurrentSubmitters(t *testing.T) {
	sys, eng := durableSystem(t, t.TempDir(), cloudviews.FaultConfig{})
	defer eng.Close()
	defer sys.Close()

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				res, err := sys.SubmitScript(cloudviews.Job{
					VC:     fmt.Sprintf("vc%d", w%3),
					Script: fmt.Sprintf(asyncScript, 10*(i%3)),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Output.NumRows() != 3 {
					t.Errorf("rows = %d, want 3", res.Output.NumRows())
				}
			}
		}(w)
	}
	// Async submissions race the sync ones on the same engine.
	var jobs []cloudviews.Job
	for i := 0; i < 18; i++ {
		jobs = append(jobs, cloudviews.Job{
			ID:     fmt.Sprintf("dur-%02d", i),
			VC:     fmt.Sprintf("vc%d", i%3),
			Script: fmt.Sprintf(asyncScript, 5*(i%4)),
		})
	}
	results, err := sys.SubmitBatch(jobs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil || res.Output == nil {
			t.Fatalf("job %d returned no output", i)
		}
	}

	if n := eng.PendingViews(); n != 0 {
		t.Errorf("%d staged views left pending", n)
	}
	if err := eng.AuditBytes(); err != nil {
		t.Errorf("byte ledger inconsistent: %v", err)
	}
}

// TestDurableSystemRecoversUnderLoad builds views through the full reuse
// lifecycle, then closes the system while reusing submitters are still
// racing, hard-kills the engine (no Close, no final snapshot), and brings a
// fresh system up on the same datadir. The recovered store must pass audit,
// hold the sealed views, and serve them to post-restart jobs as reuse hits
// rather than recomputations.
func TestDurableSystemRecoversUnderLoad(t *testing.T) {
	dir := t.TempDir()
	sys, eng := durableSystem(t, dir, cloudviews.FaultConfig{})

	var jobs []cloudviews.Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, cloudviews.Job{
			ID: fmt.Sprintf("pre-%02d", i), VC: fmt.Sprintf("vc%d", i%3),
			Pipeline: "p", Script: fmt.Sprintf(asyncScript, 10*(i%4)),
		})
	}
	// Cold rounds populate the workload repository; analysis selects the
	// recurring subexpressions; the builder round stages and seals views.
	want := make(map[string]string) // script -> output fingerprint
	for round := 0; round < 2; round++ {
		for _, job := range jobs {
			job.ID = fmt.Sprintf("%s-r%d", job.ID, round)
			res, err := sys.SubmitScript(job)
			if err != nil {
				t.Fatalf("cold job %s: %v", job.ID, err)
			}
			want[job.Script] = res.Output.Fingerprint()
			sys.AdvanceClock(time.Minute)
		}
	}
	if tags := sys.Analyze(time.Hour); tags == 0 {
		t.Fatal("analysis selected nothing")
	}
	for _, job := range jobs {
		job.ID = job.ID + "-build"
		if _, err := sys.SubmitScript(job); err != nil {
			t.Fatalf("builder job %s: %v", job.ID, err)
		}
		sys.AdvanceClock(time.Minute)
	}
	created := eng.Snapshot().Created
	if created == 0 {
		t.Fatal("builder round created no views; nothing to recover")
	}

	// The load: concurrent async submitters reusing those views race Close.
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := w; i < len(jobs); i += 4 {
				job := jobs[i]
				job.ID = fmt.Sprintf("load-%02d", i)
				p, err := sys.SubmitScriptAsync(job)
				if err != nil {
					return // Close won the race; accepted jobs still finish.
				}
				if _, err := p.Wait(); err != nil {
					t.Errorf("job %s: %v", job.ID, err)
				}
			}
		}(w)
	}
	closed := make(chan struct{})
	go func() {
		<-start
		sys.Close() // drains accepted work, races the submitters
		close(closed)
	}()
	close(start)
	wg.Wait()
	<-closed
	created = eng.Snapshot().Created
	// Hard kill: drop the engine without Close. Recovery must come from the
	// WAL (plus whatever snapshots the cadence wrote mid-run).

	sys2, eng2 := durableSystem(t, dir, cloudviews.FaultConfig{})
	defer eng2.Close()
	defer sys2.Close()
	if err := eng2.AuditBytes(); err != nil {
		t.Fatalf("byte ledger inconsistent after restart: %v", err)
	}
	if n := eng2.PendingViews(); n != 0 {
		t.Fatalf("recovery left %d pending views", n)
	}
	if got := eng2.Snapshot().Created; got != created {
		t.Fatalf("recovered Created = %d, want %d", got, created)
	}

	// Post-restart jobs run strictly after the first run's clock span, so
	// every recovered sealed view is fetchable. Outputs must match the
	// pre-restart answers, recovered views must serve as reuse hits, and
	// reuse must not mint new views.
	sys2.AdvanceClock(2 * time.Hour)
	reused := 0
	for i, job := range jobs {
		job.ID = fmt.Sprintf("post-%02d", i)
		res, err := sys2.SubmitScript(job)
		if err != nil {
			t.Fatalf("post-restart job %s: %v", job.ID, err)
		}
		if res.Output.Fingerprint() != want[job.Script] {
			t.Fatalf("job %s: answer changed across restart", job.ID)
		}
		reused += res.ViewsReused
	}
	if reused == 0 {
		t.Fatal("no recovered view was reused by post-restart jobs")
	}
	if got := eng2.Snapshot().Created; got != created {
		t.Fatalf("post-restart resubmission created %d new views; recovered views were not reused", got-created)
	}
}

// TestDurableSystemChaosRecovery extends the chaos gate to the durable engine:
// recoverable faults fire throughout a batch, then the engine is hard-killed
// and recovered. The restart invariants — no leaked locks, no pending views,
// a consistent byte ledger — must hold on the recovered store too.
func TestDurableSystemChaosRecovery(t *testing.T) {
	dir := t.TempDir()
	sys, eng := durableSystem(t, dir, cloudviews.FaultConfig{
		Seed: 29,
		Rates: map[cloudviews.FaultPoint]float64{
			"storage.view.read":   0.5,
			"storage.spool.write": 0.5,
			"core.job.fail":       0.3,
		},
	})
	var jobs []cloudviews.Job
	for i := 0; i < 24; i++ {
		jobs = append(jobs, cloudviews.Job{
			ID:     fmt.Sprintf("chaos-dur-%02d", i),
			VC:     fmt.Sprintf("vc%d", i%3),
			Script: fmt.Sprintf(asyncScript, 10*(i%3)),
		})
	}
	if _, err := sys.SubmitBatch(jobs); err != nil {
		t.Fatalf("injected faults failed a job: %v", err)
	}
	sys.Close()
	if n := sys.Engine().Insights.LockCount(); n != 0 {
		t.Fatalf("%d view-creation locks leaked before kill", n)
	}
	// Hard kill, recover, re-check the settled-system invariants.
	eng2, err := durable.Open(dir)
	if err != nil {
		t.Fatalf("recover after chaos: %v", err)
	}
	defer eng2.Close()
	if err := eng2.AuditBytes(); err != nil {
		t.Errorf("byte ledger inconsistent after chaos restart: %v", err)
	}
	if n := eng2.PendingViews(); n != 0 {
		t.Errorf("%d staged views pending after chaos restart", n)
	}
	if eng2.Count() != eng.Count() {
		t.Errorf("view count changed across restart: %d vs %d", eng2.Count(), eng.Count())
	}
}

// TestDurableSystemMatchesMemory runs the identical fault-free workload on the
// default in-memory store and on the durable engine: every job answer and the
// whole observable store state must be identical — durability is strictly
// opt-in and must never change behaviour.
func TestDurableSystemMatchesMemory(t *testing.T) {
	memSys := demoSystem(t)
	defer memSys.Close()
	diskSys, eng := durableSystem(t, t.TempDir(), cloudviews.FaultConfig{})
	defer eng.Close()
	defer diskSys.Close()

	for i := 0; i < 20; i++ {
		job := cloudviews.Job{
			ID:     fmt.Sprintf("eq-%02d", i),
			VC:     fmt.Sprintf("vc%d", i%3),
			Script: fmt.Sprintf(asyncScript, 5*(i%4)),
			Submit: cloudviews.Epoch.Add(time.Duration(i) * time.Minute),
		}
		memRes, err := memSys.SubmitScript(job)
		if err != nil {
			t.Fatalf("mem job %s: %v", job.ID, err)
		}
		diskRes, err := diskSys.SubmitScript(job)
		if err != nil {
			t.Fatalf("disk job %s: %v", job.ID, err)
		}
		if memRes.Output.Fingerprint() != diskRes.Output.Fingerprint() {
			t.Fatalf("job %s: durable backend changed the answer", job.ID)
		}
	}

	memStore, diskStore := memSys.Engine().Store, diskSys.Engine().Store
	if m, d := memStore.Snapshot(), diskStore.Snapshot(); m != d {
		t.Fatalf("store counters diverge: mem %+v, disk %+v", m, d)
	}
	memViews, diskViews := memStore.Views(), diskStore.Views()
	if len(memViews) != len(diskViews) {
		t.Fatalf("view count diverges: %d vs %d", len(memViews), len(diskViews))
	}
	byStrict := make(map[string]*storage.View, len(memViews))
	for _, v := range memViews {
		byStrict[string(v.Strict)] = v
	}
	for _, d := range diskViews {
		m, ok := byStrict[string(d.Strict)]
		if !ok {
			t.Fatalf("view %s only exists on disk", d.Strict)
		}
		if m.Path != d.Path || m.VC != d.VC || m.Bytes != d.Bytes || m.Rows != d.Rows ||
			m.Sealed != d.Sealed ||
			!m.CreatedAt.Equal(d.CreatedAt) || !m.SealedAt.Equal(d.SealedAt) ||
			!m.ExpiresAt.Equal(d.ExpiresAt) {
			t.Fatalf("view %s diverges:\n mem %+v\ndisk %+v", d.Strict, m, d)
		}
		if m.Table.Fingerprint() != d.Table.Fingerprint() {
			t.Fatalf("view %s: table bytes diverge", d.Strict)
		}
		if mu, du := memStore.UsedBytes(m.VC), diskStore.UsedBytes(d.VC); mu != du {
			t.Fatalf("vc %s byte ledger diverges: %d vs %d", m.VC, mu, du)
		}
	}
}

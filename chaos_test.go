package cloudviews_test

import (
	"fmt"
	"testing"

	"cloudviews"
)

// TestChaosConcurrentSubmitters drives the async submission pipeline with
// every fault point enabled: concurrent producers on several VCs, view-read
// and spool-write failures firing throughout, job crashes retrying. The
// contract under -race: no data race in the injector or the recovery paths,
// no job failure (injection is recoverable by construction), correct answers,
// and a settled system afterwards (no leaked locks, no pending views, a
// consistent byte ledger).
func TestChaosConcurrentSubmitters(t *testing.T) {
	sys, err := cloudviews.NewSystem(cloudviews.Config{
		ClusterName: "chaos",
		Capacity:    100,
		Faults: cloudviews.FaultConfig{
			Seed: 17,
			Rates: map[cloudviews.FaultPoint]float64{
				"storage.view.read":   0.5,
				"storage.spool.write": 0.5,
				"core.job.fail":       0.3,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
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
	for i := 0; i < 4; i++ {
		sys.OnboardVC(fmt.Sprintf("vc%d", i))
	}

	var jobs []cloudviews.Job
	for i := 0; i < 48; i++ {
		jobs = append(jobs, cloudviews.Job{
			ID: fmt.Sprintf("chaos-%02d", i),
			VC: fmt.Sprintf("vc%d", i%4),
			Script: fmt.Sprintf(`p = SELECT * FROM Events WHERE Value > %d;
r = SELECT Region, COUNT(*) AS n FROM p GROUP BY Region;
OUTPUT r TO "out/r";`, 10*(i%3)),
		})
	}
	results, err := sys.SubmitBatch(jobs)
	if err != nil {
		t.Fatalf("injected faults failed a job: %v", err)
	}

	// Equal scripts must produce equal bytes no matter which jobs hit
	// read faults and recomputed instead of reusing.
	byScript := make(map[string]string)
	for i, res := range results {
		if res == nil || res.Output == nil {
			t.Fatalf("job %d returned no output", i)
		}
		fp := res.Output.Fingerprint()
		if prev, ok := byScript[jobs[i].Script]; ok && prev != fp {
			t.Errorf("job %s: same script, different answer under chaos", jobs[i].ID)
		}
		byScript[jobs[i].Script] = fp
	}

	eng := sys.Engine()
	if n := eng.Insights.LockCount(); n != 0 {
		t.Errorf("%d view-creation locks leaked", n)
	}
	if n := eng.Store.PendingViews(); n != 0 {
		t.Errorf("%d staged views left pending", n)
	}
	if err := eng.Store.AuditBytes(); err != nil {
		t.Errorf("byte ledger inconsistent: %v", err)
	}
}

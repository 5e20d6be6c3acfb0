// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus micro-benchmarks of the reuse machinery and ablations of the design
// choices. Run with:
//
//	go test -bench=. -benchmem
//
// Table/figure benches run reduced-scale versions of the experiments (the cmd
// tools run them at full scale) and report the paper's headline quantities as
// custom metrics, so `-bench` output doubles as a results table.
package cloudviews

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cloudviews/internal/data"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/containment"
	"cloudviews/internal/exec"
	"cloudviews/internal/experiments"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/storage"
	"cloudviews/internal/workload"
)

// BenchmarkTable1 is the headline experiment: the two-month A/B production
// window at reduced scale. Reported metrics are the Table 1 improvement
// percentages.
func BenchmarkTable1(b *testing.B) {
	cfg := experiments.DefaultProduction().Scale(0.08)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunProduction(cfg)
		if err != nil {
			b.Fatal(err)
		}
		t := res.Table1
		b.ReportMetric(float64(t.Jobs), "jobs")
		b.ReportMetric(float64(t.ViewsCreated), "views-created")
		b.ReportMetric(float64(t.ViewsUsed), "views-used")
		b.ReportMetric(t.LatencyImpPct, "latency-imp-%")
		b.ReportMetric(t.MedianLatencyImpPct, "median-lat-imp-%")
		b.ReportMetric(t.ProcessingImpPct, "processing-imp-%")
		b.ReportMetric(t.BonusImpPct, "bonus-imp-%")
		b.ReportMetric(t.ContainersImpPct, "containers-imp-%")
		b.ReportMetric(t.InputImpPct, "input-imp-%")
		b.ReportMetric(t.DataReadImpPct, "dataread-imp-%")
		b.ReportMetric(t.QueueImpPct, "queue-imp-%")
	}
}

// BenchmarkFigure2 regenerates the shared-dataset CDFs for the five clusters.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure2(3, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res[0].Top10Pct), "cluster1-top10pct-consumers")
		b.ReportMetric(float64(res[4].Top10Pct), "cluster5-top10pct-consumers")
	}
}

// BenchmarkFigure3 regenerates the weekly overlap series.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure3(14, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.RepeatedPct, "repeated-subexpr-%")
		b.ReportMetric(last.AvgRepeatFrequency, "avg-repeat-frequency")
	}
}

// BenchmarkFigure6 reports the cumulative usage/latency series endpoints
// (views built/reused and cumulative latency/processing/bonus for both arms).
func BenchmarkFigure6(b *testing.B) {
	cfg := experiments.DefaultProduction().Scale(0.08)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunProduction(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var built, reused int
		var bl, cl, bp, cp, bb, cb float64
		for _, d := range res.Days {
			built += d.CV.ViewsBuilt
			reused += d.CV.ViewsReused
			bl += d.Base.LatencySec
			cl += d.CV.LatencySec
			bp += d.Base.ProcessingSec
			cp += d.CV.ProcessingSec
			bb += d.Base.BonusSec
			cb += d.CV.BonusSec
		}
		b.ReportMetric(float64(built), "6a-views-built")
		b.ReportMetric(float64(reused), "6a-views-reused")
		b.ReportMetric(bl, "6b-latency-base-s")
		b.ReportMetric(cl, "6b-latency-cv-s")
		b.ReportMetric(bp, "6c-processing-base-cs")
		b.ReportMetric(cp, "6c-processing-cv-cs")
		b.ReportMetric(bb, "6d-bonus-base-cs")
		b.ReportMetric(cb, "6d-bonus-cv-cs")
	}
}

// BenchmarkFigure7 reports the containers/input/read/queue series endpoints.
func BenchmarkFigure7(b *testing.B) {
	cfg := experiments.DefaultProduction().Scale(0.08)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunProduction(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var bc, cc, bi, ci, bd, cd, bq, cq float64
		for _, d := range res.Days {
			bc += float64(d.Base.Containers)
			cc += float64(d.CV.Containers)
			bi += float64(d.Base.InputBytes)
			ci += float64(d.CV.InputBytes)
			bd += float64(d.Base.DataReadBytes)
			cd += float64(d.CV.DataReadBytes)
			bq += float64(d.Base.QueueLen)
			cq += float64(d.CV.QueueLen)
		}
		b.ReportMetric(bc, "7a-containers-base")
		b.ReportMetric(cc, "7a-containers-cv")
		b.ReportMetric(bi/1e9, "7b-input-base-GB")
		b.ReportMetric(ci/1e9, "7b-input-cv-GB")
		b.ReportMetric(bd/1e9, "7c-read-base-GB")
		b.ReportMetric(cd/1e9, "7c-read-cv-GB")
		b.ReportMetric(bq, "7d-queue-base")
		b.ReportMetric(cq, "7d-queue-cv")
	}
}

// BenchmarkFigure8 regenerates the generalized-reuse grouping.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure8(3, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Groups) == 0 {
			b.Fatal("no groups")
		}
		b.ReportMetric(float64(len(res.Groups)), "join-input-sets")
		b.ReportMetric(float64(res.Groups[0].Frequency), "top-group-frequency")
	}
}

// BenchmarkFigure9 regenerates the concurrent-join histogram.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure9(0.3)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Outliers) == 0 {
			b.Fatal("no concurrency observed")
		}
		b.ReportMetric(float64(len(res.Stats)), "concurrent-join-signatures")
		b.ReportMetric(float64(res.Outliers[0]), "peak-concurrency")
	}
}

// ---------------------------------------------------------------------------
// Ablations: the design decisions DESIGN.md calls out.

// BenchmarkAblationSelection compares the BigSubs-style interaction-aware
// selector against the plain greedy knapsack on the same window.
func BenchmarkAblationSelection(b *testing.B) {
	for _, mode := range []struct {
		name    string
		bigSubs bool
	}{{"Greedy", false}, {"BigSubs", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := experiments.DefaultProduction().Scale(0.06)
			cfg.Selection = analysis.SelectionConfig{ScheduleAware: true, UseBigSubs: mode.bigSubs}
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunProduction(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Table1.ProcessingImpPct, "processing-imp-%")
				b.ReportMetric(float64(res.Table1.ViewsCreated), "views-created")
				b.ReportMetric(float64(res.Table1.ViewsUsed), "views-used")
			}
		})
	}
}

// BenchmarkAblationScheduleAware compares schedule-aware selection on/off:
// without it, burst-only candidates are selected, built, and never reused.
func BenchmarkAblationScheduleAware(b *testing.B) {
	for _, mode := range []struct {
		name  string
		aware bool
	}{{"Off", false}, {"On", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := experiments.DefaultProduction().Scale(0.06)
			cfg.Profile.BurstFraction = 0.5
			cfg.Profile.BurstWindow = 2 * time.Minute
			cfg.Selection = analysis.SelectionConfig{ScheduleAware: mode.aware, UseBigSubs: true}
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunProduction(cfg)
				if err != nil {
					b.Fatal(err)
				}
				t := res.Table1
				wasted := float64(t.ViewsCreated)
				if t.ViewsCreated > 0 {
					b.ReportMetric(float64(t.ViewsUsed)/wasted, "reuses-per-view")
				}
				b.ReportMetric(t.ProcessingImpPct, "processing-imp-%")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot reuse machinery.

func benchPlan(b *testing.B) (plan.Node, *catalog.Catalog) {
	b.Helper()
	cat, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		b.Fatal(err)
	}
	q, err := sqlparser.ParseQuery(`SELECT Brand, AVG(Discount) AS d
		FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id
		           JOIN Parts ON Sales.PartId = Parts.PartId
		WHERE MktSegment = 'Asia' GROUP BY Brand`)
	if err != nil {
		b.Fatal(err)
	}
	binder := &plan.Binder{Catalog: cat}
	n, err := binder.BindQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	return &plan.Output{Target: "out/x", Child: n}, cat
}

// BenchmarkSignatures measures strict+recurring signing of a full plan — the
// per-compilation cost CloudViews adds.
func BenchmarkSignatures(b *testing.B) {
	root, _ := benchPlan(b)
	signer := &signature.Signer{EngineVersion: "bench"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subs := signer.Subexpressions(root)
		if len(subs) == 0 {
			b.Fatal("no subexpressions")
		}
	}
}

// BenchmarkParseBind measures front-end cost per job.
func BenchmarkParseBind(b *testing.B) {
	cat, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		b.Fatal(err)
	}
	src := fixtures.Figure4Queries()[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		script, err := sqlparser.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		binder := &plan.Binder{Catalog: cat}
		if _, err := binder.BindScript(script); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewrite measures the normalization/pushdown pipeline.
func BenchmarkRewrite(b *testing.B) {
	root, _ := benchPlan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optimizer.Rewrite(root)
	}
}

// BenchmarkExecute measures raw plan execution over the retail fixture.
func BenchmarkExecute(b *testing.B) {
	root, cat := benchPlan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := &exec.Executor{Catalog: cat}
		if _, err := ex.Run(root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteVectorized measures the batch kernels against the row-loop
// reference on the same join+aggregate plan. The two arms produce
// byte-identical results (pinned by the exec equivalence tests); the delta is
// the vectorization win. The udo arm runs an appending UDO under an aggregate
// over the 5,000 sales on the kernels: the UDO hands over positions and its
// cells, so what it allocates does not grow with the sales' width. No arm
// starts goroutines, so -cpu must not move any.
func BenchmarkExecuteVectorized(b *testing.B) {
	root, cat := benchPlan(b)
	q, err := sqlparser.ParseQuery(`SELECT Quantity, COUNT(*) AS n, MAX(ingest_time) AS t
		FROM (PROCESS Sales USING "StampIngestTime") AS u GROUP BY Quantity`)
	if err != nil {
		b.Fatal(err)
	}
	udo, err := (&plan.Binder{Catalog: cat}).BindQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		root plan.Node
		vec  bool
	}{{"row", root, false}, {"batch", root, true}, {"udo", &plan.Output{Target: "out/u", Child: udo}, true}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ex := &exec.Executor{Catalog: cat, Vectorized: arm.vec}
				if _, err := ex.Run(arm.root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLexer measures the allocation-free incremental tokenizer (the
// front of every submission: parsing on misses, script normalization for the
// plan-cache key on every call). ReportAllocs pins the zero-alloc contract in
// bench output; the hard guarantee is TestLexerZeroAllocs.
func BenchmarkLexer(b *testing.B) {
	src := `cooked = SELECT SaleId, Price * Quantity AS revenue, @start
 FROM Sales WHERE MktSegment = 'Asia' AND Price >= 1.5 OR Quantity <> 3
 GROUP BY SaleId ORDER BY revenue DESC;
OUTPUT cooked TO "out/cooked.ss";`
	var l sqlparser.Lexer
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Reset(src)
		for {
			tok, err := l.Next()
			if err != nil {
				b.Fatal(err)
			}
			if tok.Kind == sqlparser.TokEOF {
				break
			}
		}
	}
}

// BenchmarkGenerator measures a day of workload generation at default scale.
func BenchmarkGenerator(b *testing.B) {
	cat := catalog.New()
	gen := workload.NewGenerator(cat, workload.DefaultProfile("bench"))
	if err := gen.Bootstrap(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs := gen.JobsForDay(i % 7)
		if len(jobs) == 0 {
			b.Fatal("no jobs")
		}
	}
}

// benchConcurrentSystem builds a System over a mid-sized dataset for the
// concurrent-submission throughput benchmark.
func benchConcurrentSystem(b *testing.B) *System {
	b.Helper()
	sys, err := NewSystem(Config{ClusterName: "bench-conc", Capacity: 400})
	if err != nil {
		b.Fatal(err)
	}
	schema := data.Schema{
		{Name: "Id", Kind: data.KindInt},
		{Name: "Region", Kind: data.KindString},
		{Name: "Value", Kind: data.KindFloat},
	}
	if err := sys.DefineDataset("Events", schema); err != nil {
		b.Fatal(err)
	}
	tb := data.NewTable(schema)
	regions := []string{"us", "eu", "asia", "latam"}
	for i := 0; i < 4000; i++ {
		tb.Append(data.Row{
			data.Int(int64(i)),
			data.String_(regions[i%4]),
			data.Float(float64((i * 31) % 101)),
		})
	}
	if err := sys.PublishDataset("Events", tb); err != nil {
		b.Fatal(err)
	}
	sys.SetScaleFactor("Events", 10_000)
	return sys
}

// runConcurrentSubmit is the shared body of the concurrent-submission
// benchmarks: end-to-end throughput (parse → bind → optimize → execute →
// record) with N submitter goroutines sharing one System.
func runConcurrentSubmit(b *testing.B, workers int) {
	sys := benchConcurrentSystem(b)
	// 37 distinct filter constants → 37 distinct strict signatures,
	// so the result cache warms identically in every arm without
	// collapsing all the work.
	scripts := make([]string, 37)
	for i := range scripts {
		scripts[i] = fmt.Sprintf(`p = SELECT * FROM Events WHERE Value > %d;
r = SELECT Region, COUNT(*) AS n, SUM(Value) AS s FROM p GROUP BY Region;
OUTPUT r TO "out/r";`, i)
	}
	b.ResetTimer()
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ch {
				_, err := sys.SubmitScript(Job{
					VC:     fmt.Sprintf("vc%d", w%4),
					Script: scripts[i%len(scripts)],
				})
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < b.N; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "jobs/sec")
	}
}

// BenchmarkConcurrentSubmit measures submission throughput with 1, 4, and 16
// submitter goroutines on jobs the CloudViews controls leave off (no VC is
// onboarded): a plan-cache entry is hit, and the job-dependent half of the
// compile runs on every submission. The 1-worker arm is the serial baseline
// the scaling claims compare against.
func BenchmarkConcurrentSubmit(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runConcurrentSubmit(b, workers)
		})
	}
}

// BenchmarkConcurrentSubmitExplain measures the reuse-provenance overhead on
// the throughput path with the explain layer actually exercised: VCs are
// onboarded and annotations published, so every submission walks matchViews
// and records structured decisions (matched / no-annotation / cost) instead
// of the single policy-flight record the non-onboarded arms take. Gated by
// cvbenchgate under the same BenchmarkConcurrentSubmit allocation prefix.
func BenchmarkConcurrentSubmitExplain(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runConcurrentSubmitExplain(b, workers)
		})
	}
}

// runConcurrentSubmitExplain primes annotations (two cold rounds + analyze)
// before the timed loop so the steady state makes real per-candidate reuse
// decisions on every submission.
func runConcurrentSubmitExplain(b *testing.B, workers int) {
	sys := benchConcurrentSystem(b)
	for w := 0; w < 4; w++ {
		sys.OnboardVC(fmt.Sprintf("vc%d", w))
	}
	scripts := make([]string, 37)
	for i := range scripts {
		scripts[i] = fmt.Sprintf(`p = SELECT * FROM Events WHERE Value > %d;
r = SELECT Region, COUNT(*) AS n, SUM(Value) AS s FROM p GROUP BY Region;
OUTPUT r TO "out/r";`, i)
	}
	for round := 0; round < 2; round++ {
		for i, script := range scripts {
			if _, err := sys.SubmitScript(Job{VC: fmt.Sprintf("vc%d", i%4), Pipeline: "bench", Script: script}); err != nil {
				b.Fatal(err)
			}
		}
		sys.AdvanceClock(time.Minute)
	}
	if tags := sys.Analyze(time.Hour); tags == 0 {
		b.Fatal("priming selected no annotations; the explain arm would be vacuous")
	}
	b.ResetTimer()
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ch {
				res, err := sys.SubmitScript(Job{
					VC:       fmt.Sprintf("vc%d", w%4),
					Pipeline: "bench",
					Script:   scripts[i%len(scripts)],
				})
				if err != nil {
					b.Error(err)
					return
				}
				if res.Explain() == nil {
					b.Error("explain missing on an observable submission")
					return
				}
			}
		}(w)
	}
	for i := 0; i < b.N; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "jobs/sec")
	}
}

// BenchmarkAblationContainment quantifies §5.3's headroom: a family of
// parameter-varying selections over the same base subexpression gets ZERO
// exact-match reuse but near-total reuse under the containment prototype.
func BenchmarkAblationContainment(b *testing.B) {
	cat, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		b.Fatal(err)
	}
	signer := &signature.Signer{EngineVersion: "bench-cont"}
	bindNarrow := func(q int) plan.Node {
		src := fmt.Sprintf(`SELECT * FROM Sales WHERE Quantity > %d`, q)
		parsed, err := sqlparser.ParseQuery(src)
		if err != nil {
			b.Fatal(err)
		}
		binder := &plan.Binder{Catalog: cat}
		n, err := binder.BindQuery(parsed)
		if err != nil {
			b.Fatal(err)
		}
		return n
	}

	for i := 0; i < b.N; i++ {
		store := storage.NewStore(func() time.Time { return fixtures.Epoch })
		ix := containment.NewIndex()

		// Materialize the widest variant once.
		wide := bindNarrow(1)
		wideSubs := signer.Subexpressions(wide)
		wideSig := wideSubs[len(wideSubs)-1].Strict
		spooled := &plan.Spool{Child: wide, StrictSig: string(wideSig), Path: "v/wide"}
		if _, err := (&exec.Executor{Catalog: cat, Views: store}).Run(spooled); err != nil {
			b.Fatal(err)
		}
		store.Seal(wideSig)
		containment.HarvestViews(spooled, signer, store, ix)

		exactHits, containedHits := 0, 0
		total := 8
		for q := 2; q < 2+total; q++ {
			n := bindNarrow(q)
			subs := signer.Subexpressions(n)
			if _, st := store.Status(subs[len(subs)-1].Strict); st.Servable() {
				exactHits++
			}
			if _, res := containment.Rewrite(n, signer, ix, store); res.Rewrites > 0 {
				containedHits++
			}
		}
		b.ReportMetric(float64(exactHits)/float64(total)*100, "exact-reuse-%")
		b.ReportMetric(float64(containedHits)/float64(total)*100, "contained-reuse-%")
	}
}

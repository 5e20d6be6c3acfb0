package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/data"
	"cloudviews/internal/explain"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/stats"
	"cloudviews/internal/workload"
)

const pcScript = `p = SELECT * FROM Events WHERE Value > 10;
r = SELECT Region, COUNT(*) AS n, SUM(Value) AS s FROM p GROUP BY Region;
OUTPUT r TO "out/r";`

func pcEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = catalog.New()
	}
	if cfg.ClusterName == "" {
		cfg.ClusterName = "pc-test"
	}
	cfg.ClusterCfg = cluster.Config{Capacity: 100}
	e := NewEngine(cfg)
	schema := data.Schema{
		{Name: "Id", Kind: data.KindInt},
		{Name: "Region", Kind: data.KindString},
		{Name: "Value", Kind: data.KindFloat},
	}
	if _, err := e.Catalog.Define("Events", schema); err != nil {
		t.Fatal(err)
	}
	tb := data.NewTable(schema)
	regions := []string{"us", "eu", "asia"}
	for i := 0; i < 300; i++ {
		tb.Append(data.Row{
			data.Int(int64(i)), data.String_(regions[i%3]), data.Float(float64(i % 50)),
		})
	}
	if _, err := e.Catalog.BulkUpdate("Events", fixtures.Epoch, tb); err != nil {
		t.Fatal(err)
	}
	return e
}

func pcInput(id, script string) workload.JobInput {
	return workload.JobInput{
		ID: id, Cluster: "pc-test", VC: "vc-off", Pipeline: "p", Runtime: "scope-r1",
		Script: script, Submit: fixtures.Epoch, OptIn: true,
	}
}

// pcEntry returns the plan-cache entry a job input's script lands on (nil if
// none) and the instance of it that serves the input as the catalog stands
// (nil if none).
func pcEntry(t *testing.T, e *Engine, in workload.JobInput) (*planEntry, *optimizer.Prepared) {
	t.Helper()
	buf := planKeys.Get().(*[]byte)
	defer putKeyBuf(buf)
	key, ok := e.plans.appendKey((*buf)[:0], in)
	*buf = key
	if !ok {
		t.Fatal("no plan-cache key")
	}
	e.plans.mu.Lock()
	defer e.plans.mu.Unlock()
	entry := e.plans.m[string(key)]
	if entry == nil {
		return nil, nil
	}
	return entry, entry.match(e.Catalog.Generation(), in.Params)
}

// coldPrepared parses, binds and prepares a job input from scratch, as a
// submission the plan cache does not know is compiled.
func coldPrepared(t *testing.T, e *Engine, in workload.JobInput) *optimizer.Prepared {
	t.Helper()
	script, err := sqlparser.Parse(in.Script)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := (&plan.Binder{Catalog: e.Catalog, Params: in.Params}).BindScript(script)
	if err != nil {
		t.Fatal(err)
	}
	return (&optimizer.Optimizer{Signer: e.signerFor(in.Runtime)}).Prepare(outs[0])
}

// TestPlanCacheHitMatchesMiss runs the same submission sequence through a
// cached engine and a cache-disabled twin: every run must produce a
// byte-identical output table, trace render, stage lowering and repository
// record, and the cached engine must compile all four from one prepared plan.
func TestPlanCacheHitMatchesMiss(t *testing.T) {
	cachedEng := pcEngine(t, Config{})
	plainEng := pcEngine(t, Config{PlanCacheSize: -1})
	var entry *planEntry
	var prep *optimizer.Prepared
	for i := 0; i < 4; i++ {
		in := pcInput(fmt.Sprintf("j%d", i), pcScript)
		cr, err := cachedEng.CompileAndExecute(in)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := plainEng.CompileAndExecute(in)
		if err != nil {
			t.Fatal(err)
		}
		if cr.Exec.Table.Fingerprint() != pr.Exec.Table.Fingerprint() {
			t.Fatalf("run %d: cached output differs from uncached", i)
		}
		if ct, pt := cr.Trace.Render(), pr.Trace.Render(); ct != pt {
			t.Fatalf("run %d: cached trace differs from uncached:\ncached:\n%s\nplain:\n%s", i, ct, pt)
		}
		if !reflect.DeepEqual(cr.Stages, pr.Stages) {
			t.Fatalf("run %d: cached stages differ from uncached:\ncached: %+v\nplain:  %+v", i, cr.Stages, pr.Stages)
		}
		if !reflect.DeepEqual(cr.Record, pr.Record) {
			t.Fatalf("run %d: cached record differs from uncached:\ncached: %+v\nplain:  %+v", i, cr.Record, pr.Record)
		}
		got, inst := pcEntry(t, cachedEng, in)
		if got == nil || inst == nil {
			t.Fatalf("run %d: no prepared plan on the script's entry", i)
		}
		if i == 0 {
			entry, prep = got, inst
		} else if got != entry || inst != prep || got.template != prep {
			t.Fatalf("run %d: the entry or its prepared plan was replaced", i)
		}
	}
}

// TestPlanCacheInvalidatedByCatalogChange publishes a new dataset version
// between submissions: the cached plan must not serve stale bindings, and the
// output must reflect the new data.
func TestPlanCacheInvalidatedByCatalogChange(t *testing.T) {
	e := pcEngine(t, Config{})
	for i := 0; i < 3; i++ {
		if _, err := e.CompileAndExecute(pcInput(fmt.Sprintf("warm%d", i), pcScript)); err != nil {
			t.Fatal(err)
		}
	}
	gen := e.Catalog.Generation()
	schema := data.Schema{
		{Name: "Id", Kind: data.KindInt},
		{Name: "Region", Kind: data.KindString},
		{Name: "Value", Kind: data.KindFloat},
	}
	tb := data.NewTable(schema)
	tb.Append(data.Row{data.Int(1), data.String_("mars"), data.Float(99)})
	if _, err := e.Catalog.BulkUpdate("Events", fixtures.Epoch.Add(time.Hour), tb); err != nil {
		t.Fatal(err)
	}
	if e.Catalog.Generation() == gen {
		t.Fatal("BulkUpdate did not bump the catalog generation")
	}
	run, err := e.CompileAndExecute(pcInput("after-update", pcScript))
	if err != nil {
		t.Fatal(err)
	}
	if n := run.Exec.Table.NumRows(); n != 1 {
		t.Fatalf("post-update output has %d rows, want 1 (the mars row)", n)
	}
	if got := run.Exec.Table.Rows[0][0].S; got != "mars" {
		t.Fatalf("post-update region = %q, want mars", got)
	}
}

// TestPlanCacheSkipsReuseEnabledJobs flips the CloudViews controls under one
// cached script: the entry holds only what does not depend on them, so it
// serves on → off → on, every submission's compile follows the control of its
// own moment, and the answers are identical.
func TestPlanCacheSkipsReuseEnabledJobs(t *testing.T) {
	e := pcEngine(t, Config{})
	in := pcInput("flip", pcScript)
	in.VC = "vc-on"
	var entry *planEntry
	var want string
	for i, on := range []bool{true, false, true} {
		if on {
			e.OnboardVC(in.VC)
		} else {
			e.OffboardVC(in.VC)
		}
		in.ID = fmt.Sprintf("flip-%d", i)
		run, err := e.CompileAndExecute(in)
		if err != nil {
			t.Fatal(err)
		}
		flighted := false
		for _, d := range run.Explain.Decisions() {
			flighted = flighted || d.Reason == explain.ReasonPolicyFlight
		}
		if flighted == on {
			t.Fatalf("submission %d: a policy-flight decision is %v with the VC onboarded=%v", i, flighted, on)
		}
		got, _ := pcEntry(t, e, in)
		if i == 0 {
			entry, want = got, run.Exec.Table.Fingerprint()
		}
		if got == nil || got != entry {
			t.Fatalf("submission %d: not served by the first submission's entry", i)
		}
		if run.Exec.Table.Fingerprint() != want {
			t.Fatalf("submission %d: output differs from the first submission's", i)
		}
	}
	if len(e.plans.m) != 1 {
		t.Fatalf("%d plan-cache entries, want 1", len(e.plans.m))
	}
}

// TestEveryJobCompilesAgainstCurrentHistory guards against a compile ever
// being skipped again: one controls-off script is resubmitted while runtime
// history moves between submissions, and every run's estimates must be those
// of its own submit time — equal to a cache-disabled twin's, and equal to the
// history mean read just before the submission.
func TestEveryJobCompilesAgainstCurrentHistory(t *testing.T) {
	cachedEng := pcEngine(t, Config{})
	plainEng := pcEngine(t, Config{PlanCacheSize: -1})
	estimates := func(run *JobRun) []stats.Estimate {
		var out []stats.Estimate
		plan.Walk(run.Compile.Plan, func(n plan.Node) {
			out = append(out, run.Compile.Estimates[n])
		})
		return out
	}
	const n = 5
	var filter signature.Sig // the filter's recurring signature, read off the first run
	for i := 0; i < n; i++ {
		var want stats.Summary
		if i > 0 {
			o := stats.Observation{Rows: int64(1000 * i), Bytes: int64(64000 * i), Work: 1}
			cachedEng.History.Record(filter, o)
			plainEng.History.Record(filter, o)
			want, _ = cachedEng.History.LookupMeans(filter)
		}
		in := pcInput(fmt.Sprintf("h%d", i), pcScript)
		cr, err := cachedEng.CompileAndExecute(in)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := plainEng.CompileAndExecute(in)
		if err != nil {
			t.Fatal(err)
		}
		if ce, pe := estimates(cr), estimates(pr); !reflect.DeepEqual(ce, pe) {
			t.Fatalf("run %d: cached estimates differ from uncached:\ncached: %v\nplain:  %v", i, ce, pe)
		}
		for _, s := range cr.Compile.Subs {
			if s.Op != "Filter" {
				continue
			}
			filter = s.Recurring
			if got := cr.Compile.Estimates[s.Node]; i > 0 && (got.Rows != want.AvgRows || got.Bytes != want.AvgBytes) {
				t.Fatalf("run %d: filter estimated at %+v, history at submit time says rows=%v bytes=%v", i, got, want.AvgRows, want.AvgBytes)
			}
		}
		if filter == "" {
			t.Fatal("the compiled plan has no filter")
		}
	}
	if hits, misses := cachedEng.PlanCacheStats(); hits != 0 || misses != n {
		t.Fatalf("PlanCacheStats = (%d, %d), want (0, %d): a submission skipped its compile", hits, misses, n)
	}
}

// TestPlanCacheDisabled pins the off switch: PlanCacheSize < 0 must count
// nothing and still execute correctly.
func TestPlanCacheDisabled(t *testing.T) {
	e := pcEngine(t, Config{PlanCacheSize: -1})
	for i := 0; i < 3; i++ {
		if _, err := e.CompileAndExecute(pcInput(fmt.Sprintf("d%d", i), pcScript)); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := e.PlanCacheStats()
	if hits != 0 || misses != 0 {
		t.Fatalf("disabled cache recorded hits=%d misses=%d, want 0/0", hits, misses)
	}
}

// TestPlanCacheNormalizesScripts verifies whitespace/comment/keyword-case
// variants of a script share one cache entry.
func TestPlanCacheNormalizesScripts(t *testing.T) {
	e := pcEngine(t, Config{})
	variant := `p = select * from Events where Value > 10;
-- a comment the lexer drops
r = SELECT   Region, COUNT(*) AS n, SUM(Value) AS s
    FROM p GROUP BY Region;
OUTPUT r TO "out/r";`
	baseKey, _ := e.plans.appendKey(nil, pcInput("base", pcScript))
	variantKey, ok := e.plans.appendKey(nil, pcInput("v", variant))
	if !ok || string(baseKey) != string(variantKey) {
		t.Fatalf("variant key differs from the base script's:\n%q\n%q", variantKey, baseKey)
	}
	base, err := e.CompileAndExecute(pcInput("base", pcScript))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		run, err := e.CompileAndExecute(pcInput(fmt.Sprintf("v%d", i), variant))
		if err != nil {
			t.Fatal(err)
		}
		if run.Exec.Table.Fingerprint() != base.Exec.Table.Fingerprint() {
			t.Fatal("variant output differs")
		}
	}
	if len(e.plans.m) != 1 {
		t.Fatalf("%d plan-cache entries for one normalized script, want 1", len(e.plans.m))
	}
}

// TestPlanCacheParamSensitivity verifies distinct parameter bindings never
// share an entry.
func TestPlanCacheParamSensitivity(t *testing.T) {
	e := pcEngine(t, Config{})
	script := `r = SELECT Region, COUNT(*) AS n FROM Events WHERE Value > @lo GROUP BY Region;
OUTPUT r TO "out/r";`
	outputs := map[string]string{}
	for _, lo := range []float64{5, 45} {
		in := pcInput(fmt.Sprintf("p-%v", lo), script)
		in.Params = map[string]data.Value{"lo": data.Float(lo)}
		var last *JobRun
		for i := 0; i < 3; i++ {
			in.ID = fmt.Sprintf("p-%v-%d", lo, i)
			run, err := e.CompileAndExecute(in)
			if err != nil {
				t.Fatal(err)
			}
			last = run
		}
		outputs[fmt.Sprint(lo)] = last.Exec.Table.Fingerprint()
	}
	if outputs["5"] == outputs["45"] {
		t.Fatal("different parameter bindings produced identical outputs — key collision")
	}
}

// TestSubSecondTimeParamsDoNotCollide: data.Time holds nanoseconds, and two
// @t values inside one second must not render — and so sign — alike. When they
// did, the second job was served the first one's rows from the result cache,
// with the plan cache on and off.
func TestSubSecondTimeParamsDoNotCollide(t *testing.T) {
	schema := data.Schema{{Name: "Id", Kind: data.KindInt}, {Name: "Ts", Kind: data.KindTime}}
	for _, size := range []int{0, -1} {
		e := pcEngine(t, Config{PlanCacheSize: size})
		if _, err := e.Catalog.Define("Ticks", schema); err != nil {
			t.Fatal(err)
		}
		tb := data.NewTable(schema)
		for i := 0; i < 10; i++ {
			tb.Append(data.Row{data.Int(int64(i)), data.Time(fixtures.Epoch.Add(time.Duration(i) * 100 * time.Millisecond))})
		}
		if _, err := e.Catalog.BulkUpdate("Ticks", fixtures.Epoch, tb); err != nil {
			t.Fatal(err)
		}
		var sigs []signature.Sig
		for _, c := range []struct {
			ms   int
			want int
		}{{250, 3}, {750, 8}} {
			in := pcInput(fmt.Sprintf("ticks-%d", c.ms), `r = SELECT Id FROM Ticks WHERE Ts < @t; OUTPUT r TO "out/ticks";`)
			in.Params = map[string]data.Value{"t": data.Time(fixtures.Epoch.Add(time.Duration(c.ms) * time.Millisecond))}
			run, err := e.CompileAndExecute(in)
			if err != nil {
				t.Fatal(err)
			}
			if n := run.Exec.Table.NumRows(); n != c.want {
				t.Errorf("PlanCacheSize %d, @t = epoch+%dms: %d rows, want %d", size, c.ms, n, c.want)
			}
			sigs = append(sigs, run.Compile.Subs[len(run.Compile.Subs)-1].Strict)
		}
		if sigs[0] == sigs[1] {
			t.Errorf("PlanCacheSize %d: two @t values inside one second share the strict signature %s", size, sigs[0])
		}
	}
}

// pcTemplate is the i-th of a family of distinct scripts: each normalizes to
// its own key.
func pcTemplate(i int) string {
	return fmt.Sprintf("r = SELECT Region, COUNT(*) AS n FROM Events WHERE Value > %d GROUP BY Region;\nOUTPUT r TO \"out/r\";", i)
}

// TestPlanCacheEvictsLeastRecentlyUsed fills a cache, touches its oldest
// entry and stores one more: the entry evicted is the least recently used,
// and its next submission compiles cold while the touched one still hits.
func TestPlanCacheEvictsLeastRecentlyUsed(t *testing.T) {
	const capacity = 4
	e := pcEngine(t, Config{PlanCacheSize: capacity})
	submit := func(id string, i int) {
		t.Helper()
		if _, err := e.CompileAndExecute(pcInput(id, pcTemplate(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < capacity; i++ {
		submit(fmt.Sprintf("fill-%d", i), i)
	}
	submit("touch-0", 0)
	submit("new", capacity)
	if n := len(e.plans.m); n != capacity {
		t.Errorf("%d entries held, want the cache full at %d", n, capacity)
	}
	for i := 0; i <= capacity; i++ {
		entry, _ := pcEntry(t, e, pcInput("probe", pcTemplate(i)))
		if resident := entry != nil; resident != (i != 1) {
			t.Errorf("script %d resident = %v, want only script 1 (the least recently used) evicted", i, resident)
		}
	}
	hits, cold := e.plans.hit.Value(), e.plans.cold.Value()
	submit("again-0", 0)
	submit("again-1", 1)
	if e.plans.hit.Value() != hits+1 || e.plans.cold.Value() != cold+1 {
		t.Errorf("resubmitting the touched and the evicted script: %.0f hits, %.0f cold, want 1 and 1",
			e.plans.hit.Value()-hits, e.plans.cold.Value()-cold)
	}
}

// TestPlanCacheLookupAllocatesNothing pins the hit path's key: building it in
// a reused buffer and looking it up allocate nothing.
func TestPlanCacheLookupAllocatesNothing(t *testing.T) {
	e := pcEngine(t, Config{})
	in := pcInput("hit", pcScript)
	if _, err := e.CompileAndExecute(in); err != nil {
		t.Fatal(err)
	}
	gen, buf := e.Catalog.Generation(), make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		key, ok := e.plans.appendKey(buf[:0], in)
		if _, prep := e.plans.lookup(key, gen, in.Params); !ok || prep == nil {
			t.Fatal("the submitted script is not served by the cache")
		}
	})
	if allocs != 0 {
		t.Errorf("a plan-cache hit's key and lookup allocate %.0f times, want 0", allocs)
	}
}

// TestPlanCacheKeySeparatesRuntime: a key is the runtime and the normalized
// script, and no split of one key's bytes between the two reads as another's.
// Runtime "a" with script "b x = ..." and runtime "a b" with "x = ..." would
// share a key joined by a space.
func TestPlanCacheKeySeparatesRuntime(t *testing.T) {
	e := pcEngine(t, Config{})
	const tail = `x = SELECT * FROM Events; OUTPUT x TO "out/x";`
	long, short := pcInput("long", "b "+tail), pcInput("short", tail)
	long.Runtime, short.Runtime = "a", "a b"
	lk, ok1 := e.plans.appendKey(nil, long)
	sk, ok2 := e.plans.appendKey(nil, short)
	if !ok1 || !ok2 {
		t.Fatal("no plan-cache key")
	}
	ln, _ := sqlparser.AppendNormalized(nil, long.Script)
	sn, _ := sqlparser.AppendNormalized(nil, short.Script)
	if long.Runtime+" "+string(ln) != short.Runtime+" "+string(sn) {
		t.Fatal("the two inputs no longer collide when joined by a space; the test proves nothing")
	}
	if string(lk) == string(sk) {
		t.Errorf("runtimes %q and %q share the key %q", long.Runtime, short.Runtime, lk)
	}
}

// TestConcurrentSubmittersOverAFullCache runs submitters of a population
// larger than the cache side by side, so entries are stored and evicted while
// other goroutines hit and derive: every answer must equal a cache-disabled
// engine's, and the cache must hold no more than its capacity.
func TestConcurrentSubmittersOverAFullCache(t *testing.T) {
	const capacity, population, workers = 8, 12, 4
	e := pcEngine(t, Config{PlanCacheSize: capacity})
	plain := pcEngine(t, Config{PlanCacheSize: -1})
	want := make([]string, population)
	for i := range want {
		run, err := plain.CompileAndExecute(pcInput(fmt.Sprintf("ref-%d", i), pcTemplate(i)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = run.Exec.Table.Fingerprint()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3*population; k++ {
				i := (k + w*population/workers) % population
				run, err := e.CompileAndExecute(pcInput(fmt.Sprintf("w%d-%d", w, k), pcTemplate(i)))
				if err != nil {
					t.Error(err)
					return
				}
				if got := run.Exec.Table.Fingerprint(); got != want[i] {
					t.Errorf("worker %d, script %d: answer differs from the uncached engine's", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(e.plans.m); n > capacity {
		t.Errorf("%d entries held, capacity %d", n, capacity)
	}
	if got := e.plans.hit.Value() + e.plans.derive.Value() + e.plans.cold.Value(); got != workers*3*population {
		t.Errorf("%.0f lookups counted, want %d", got, workers*3*population)
	}
}

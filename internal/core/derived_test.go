package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/data"
	"cloudviews/internal/explain"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/workload"
)

// derivedWorld is one of the lockstep worlds of the differential tests below:
// its own catalog, generator and engine, every VC onboarded.
type derivedWorld struct {
	cat *catalog.Catalog
	gen *workload.Generator
	eng *Engine
}

func newDerivedWorld(t *testing.T, planCacheSize int) *derivedWorld {
	t.Helper()
	return newWorld(t, smallProfile("Derived"), planCacheSize)
}

// smallProfile is a generated cluster small enough for a lockstep test.
func smallProfile(name string) workload.ClusterProfile {
	p := workload.DefaultProfile(name)
	p.Pipelines = 12
	p.RawStreams = 4
	p.CookedDatasets = 5
	p.DimTables = 2
	p.PrefixPool = 8
	p.RowsPerRawDay = 150
	p.VCs = 2
	return p
}

func newWorld(t *testing.T, p workload.ClusterProfile, planCacheSize int) *derivedWorld {
	t.Helper()
	w := &derivedWorld{cat: catalog.New()}
	w.gen = workload.NewGenerator(w.cat, p)
	if err := w.gen.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	var vcs []cluster.VCConfig
	for _, vc := range w.gen.VCNames() {
		vcs = append(vcs, cluster.VCConfig{Name: vc, Tokens: 60})
	}
	w.eng = NewEngine(Config{
		ClusterName:   p.Name,
		Catalog:       w.cat,
		ClusterCfg:    cluster.Config{Capacity: 400, VCs: vcs},
		Selection:     analysis.SelectionConfig{ScheduleAware: true, UseBigSubs: true},
		PlanCacheSize: planCacheSize,
	})
	for _, vc := range w.gen.VCNames() {
		w.eng.OnboardVC(vc)
	}
	return w
}

// republish gives dataset name a new version holding its latest table: the
// generation moves and every plan scanning name must read the new GUID.
func (w *derivedWorld) republish(t *testing.T, name string, at time.Time) {
	t.Helper()
	ver, err := w.cat.Latest(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.cat.BulkUpdate(name, at, ver.Table); err != nil {
		t.Fatal(err)
	}
}

// compiledView renders everything a compile decided, in position order, with
// node identities left out: the plan with its strict attributes, then each
// position's enumeration entry, result-cache key, estimate and join algorithm.
func compiledView(run *JobRun) string {
	var sb strings.Builder
	cr := run.Compile
	sb.WriteString(plan.Format(cr.Plan))
	for i, s := range cr.Subs {
		fmt.Fprintf(&sb, "%s %s %s %s h=%d n=%d %s %v parent=%d", s.Node.OpName(), s.Op, s.Strict, s.Recurring,
			s.Height, s.NodeCount, s.Eligibility, s.InputDatasets, s.Parent)
		nd := cr.Nodes[i]
		fmt.Fprintf(&sb, " key=%s rows=%v bytes=%v", nd.Key, nd.Est.Rows, nd.Est.Bytes)
		switch x := s.Node.(type) {
		case *plan.Join:
			fmt.Fprintf(&sb, " algo=%s", cr.JoinAlgo(i))
		case *plan.Scan:
			fmt.Fprintf(&sb, " base=%d", x.BaseRows)
		}
		sb.WriteByte('\n')
	}
	if len(cr.Nodes) != len(cr.Subs) {
		fmt.Fprintf(&sb, "%d nodes for %d positions\n", len(cr.Nodes), len(cr.Subs))
	}
	fmt.Fprintf(&sb, "tag=%s matched=%+v proposed=%+v latency=%s\n", cr.Tag, cr.Matched, cr.Proposed, cr.CompileLatency)
	return sb.String()
}

// TestDerivedPreparedMatchesColdCompile is the contract of optimizer.Derive:
// a job compiled from its script's template is indistinguishable from one
// parsed, bound, normalized and enumerated from scratch. Two engines run one
// stream in lockstep, one with the plan cache and one without: four days of
// the generator's feedback loop — bulk updates, cooking jobs that publish
// their output, @params that move per run, views selected, built and matched
// — with one dataset republished between every two jobs, plus a GDPR forget,
// a rescaled dataset, a parameter that changes kind, one that goes missing and
// a dataset left with no readable version. Every job must agree on both sides
// in every signature, estimate, join algorithm, trace line, explain decision,
// stage, record field and output cell — or fail with the same words.
func TestDerivedPreparedMatchesColdCompile(t *testing.T) {
	cached, plain := newDerivedWorld(t, 0), newDerivedWorld(t, -1)
	worlds := []*derivedWorld{cached, plain}
	names := cached.cat.Names()

	var jobs, derivations, matched, failures int
	submit := func(in workload.JobInput) {
		t.Helper()
		jobs++
		entry, inst := pcEntry(t, cached.eng, in)
		if entry != nil && inst == nil {
			derivations++
		}
		cr, cerr := cached.eng.CompileAndExecute(in)
		pr, perr := plain.eng.CompileAndExecute(in)
		if after, _ := pcEntry(t, cached.eng, in); entry != nil && (after != entry || after.template != entry.template) {
			t.Fatalf("%s: the script's template was replaced", in.ID)
		}
		if cerr != nil || perr != nil {
			failures++
			if cerr == nil || perr == nil || cerr.Error() != perr.Error() {
				t.Fatalf("%s: cached error %v, cold error %v", in.ID, cerr, perr)
			}
			return
		}
		matched += len(cr.Compile.Matched)
		if c, p := compiledView(cr), compiledView(pr); c != p {
			t.Fatalf("%s: compiled from the template:\n%s\ncompiled cold:\n%s", in.ID, c, p)
		}
		if c, p := cr.Trace.Render(), pr.Trace.Render(); c != p {
			t.Fatalf("%s: trace from the template:\n%s\ncold:\n%s", in.ID, c, p)
		}
		if c, p := explain.RenderDecisions(in.ID, cr.Explain.Decisions()), explain.RenderDecisions(in.ID, pr.Explain.Decisions()); c != p {
			t.Fatalf("%s: decisions from the template:\n%s\ncold:\n%s", in.ID, c, p)
		}
		if !reflect.DeepEqual(cr.Stages, pr.Stages) {
			t.Fatalf("%s: stages from the template %+v, cold %+v", in.ID, cr.Stages, pr.Stages)
		}
		if !reflect.DeepEqual(cr.Record, pr.Record) {
			t.Fatalf("%s: record from the template %+v, cold %+v", in.ID, cr.Record, pr.Record)
		}
		if orderedDigest(cr.Exec.Table) != orderedDigest(pr.Exec.Table) {
			t.Fatalf("%s: output from the template differs from the cold one", in.ID)
		}
	}
	both := func(fn func(w *derivedWorld)) {
		for _, w := range worlds {
			fn(w)
		}
	}

	// Hand-written scripts for what the generator never does.
	vc := cached.gen.VCNames()[0]
	hand := func(id, script string, at time.Time, params map[string]data.Value) workload.JobInput {
		return workload.JobInput{
			ID: id, Cluster: "Derived", VC: vc, Pipeline: "hand", Runtime: "scope-r1",
			Script: script, Params: params, Submit: at, OptIn: true,
		}
	}
	raw := ""
	for _, n := range names {
		if !strings.Contains(n, "_Cooked") && !strings.Contains(n, "Dim") {
			raw = n
			break
		}
	}
	if raw == "" {
		t.Fatalf("no raw stream among %v", names)
	}
	kindScript := fmt.Sprintf(`r = SELECT Region, COUNT(*) AS n, SUM(Value + @lo) AS s FROM %s WHERE Value > @lo AND Value * @lo != 7 GROUP BY Region;
OUTPUT r TO "out/kind";`, raw)
	lonelySchema := data.Schema{{Name: "Id", Kind: data.KindInt}, {Name: "Ts", Kind: data.KindTime}}
	lonelyScript := `r = SELECT Id FROM Lonely WHERE Ts < @t; OUTPUT r TO "out/lonely";`
	both(func(w *derivedWorld) {
		if _, err := w.cat.Define("Lonely", lonelySchema); err != nil {
			t.Fatal(err)
		}
		tb := data.NewTable(lonelySchema)
		for i := 0; i < 10; i++ {
			tb.Append(data.Row{data.Int(int64(i)), data.Time(fixtures.Epoch.Add(time.Duration(i) * time.Hour))})
		}
		if _, err := w.cat.BulkUpdate("Lonely", fixtures.Epoch, tb); err != nil {
			t.Fatal(err)
		}
	})

	const days = 4
	for day := 0; day < days; day++ {
		dayStart := fixtures.Epoch.AddDate(0, 0, day)
		if day > 0 {
			both(func(w *derivedWorld) {
				if err := w.gen.AdvanceDay(day); err != nil {
					t.Fatal(err)
				}
			})
		}
		both(func(w *derivedWorld) { w.eng.resetCache() })
		for i, in := range cached.gen.JobsForDay(day) {
			submit(in)
			// The catalog moves between every two jobs.
			both(func(w *derivedWorld) { w.republish(t, names[(day*7+i)%len(names)], in.Submit) })
		}
		end := dayStart.Add(23 * time.Hour)

		// @lo changes value every run and kind every day: Int, Float, Int, …
		for run := 0; run < 3; run++ {
			lo := data.Int(int64(10 + 5*run + day))
			if day%2 == 1 {
				lo = data.Float(10.5 + float64(run))
			}
			submit(hand(fmt.Sprintf("kind-d%d-r%d", day, run), kindScript, end, map[string]data.Value{"lo": lo}))
		}
		// … and once a day it is not bound at all.
		submit(hand(fmt.Sprintf("unbound-d%d", day), kindScript, end, nil))

		submit(hand(fmt.Sprintf("lonely-d%d", day), lonelyScript, end,
			map[string]data.Value{"t": data.Time(fixtures.Epoch.Add(time.Duration(3+day) * time.Hour))}))
		switch day {
		case 0:
			// GDPR forget: the raw stream's latest version is rotated to a new
			// GUID with fewer rows.
			both(func(w *derivedWorld) {
				ver, err := w.cat.Latest(raw)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.cat.Forget(ver.GUID, end, func(r data.Row) bool { return r[1].I%3 != 0 }); err != nil {
					t.Fatal(err)
				}
			})
		case 1:
			// BaseRows moves under every plan scanning the stream.
			both(func(w *derivedWorld) { w.cat.SetScaleFactor(raw, 7_500) })
		case 2:
			// Every version of Lonely becomes unreadable: day 3's submission
			// finds a template and no version to point it at.
			both(func(w *derivedWorld) {
				vs, err := w.cat.Window("Lonely", w.cat.VersionCount("Lonely"))
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range vs {
					v.Forgotten = true
				}
			})
		}
		submit(hand(fmt.Sprintf("kind-after-d%d", day), kindScript, end.Add(time.Minute), map[string]data.Value{"lo": data.Int(12)}))
		both(func(w *derivedWorld) { w.eng.RunAnalysis(dayStart.AddDate(0, 0, -7), dayStart.AddDate(0, 0, 1)) })
	}

	t.Logf("%d jobs, %d compiled from a template, %d views matched, %d failed alike", jobs, derivations, matched, failures)
	if derivations < jobs/2 {
		t.Errorf("%d of %d jobs found a template without a usable instance: the derivation is not what was tested", derivations, jobs)
	}
	if matched == 0 {
		t.Error("no job matched a view: the reuse path was not compared")
	}
	if failures != days+1 {
		t.Errorf("%d jobs failed, want %d (an unbound parameter a day, and Lonely without a version)", failures, days+1)
	}
	if h, m := cached.eng.PlanCacheStats(); h != 0 || int(m) != jobs-failures {
		t.Errorf("PlanCacheStats = (%d, %d), want (0, %d)", h, m, jobs-failures)
	}
}

// TestConcurrentDerivationsRaceBulkUpdates: submitters of one template, each
// with its own @lo, race a writer republishing the dataset they scan. An
// instance is published once and read by whoever matches it afterwards, the
// template is read by every derivation; a write to either shows under -race.
// Whatever generation a job lands on, its answer and signatures must be those
// of a cold compile with its parameter — the rows never change, only GUIDs.
func TestConcurrentDerivationsRaceBulkUpdates(t *testing.T) {
	script := `r = SELECT Region, COUNT(*) AS n FROM Events WHERE Value > @lo GROUP BY Region;
OUTPUT r TO "out/r";`
	e := pcEngine(t, Config{})
	ref := pcEngine(t, Config{PlanCacheSize: -1})
	const workers, each = 6, 30
	want := make([][32]byte, workers)
	for w := range want {
		in := pcInput(fmt.Sprintf("ref-%d", w), script)
		in.Params = map[string]data.Value{"lo": data.Float(float64(5 * w))}
		run, err := ref.CompileAndExecute(in)
		if err != nil {
			t.Fatal(err)
		}
		want[w] = orderedDigest(run.Exec.Table)
	}
	ver, err := e.Catalog.Latest("Events")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writer, wg sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Catalog.BulkUpdate("Events", fixtures.Epoch.Add(time.Duration(i)*time.Second), ver.Table); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				in := pcInput(fmt.Sprintf("w%d-%d", w, i), script)
				in.Params = map[string]data.Value{"lo": data.Float(float64(5 * w))}
				run, err := e.CompileAndExecute(in)
				if err != nil {
					t.Error(err)
					return
				}
				if orderedDigest(run.Exec.Table) != want[w] {
					t.Errorf("%s: output differs from the cold compile with @lo=%d", in.ID, 5*w)
					return
				}
				// The strict signatures are the ones a signer computes from
				// scratch over the plan the job ran.
				signer := e.signerFor(in.Runtime)
				fresh := map[plan.Node]signature.Sig{}
				for _, s := range signer.Subexpressions(run.Compile.Plan) {
					fresh[s.Node] = s.Strict
				}
				for _, s := range run.Compile.Subs {
					if fresh[s.Node] != s.Strict {
						t.Errorf("%s: %s signed %s, from scratch %s", in.ID, s.Op, s.Strict, fresh[s.Node])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	if len(e.plans.m) != 1 {
		t.Errorf("%d plan-cache entries for one template, want 1", len(e.plans.m))
	}
}

// recurringAllocCeiling bounds the allocations of one submission of a known
// template after a bulk update, with a new parameter value: lookup, Derive,
// store, compile, execute over 300 rows, record. Last measured: 40 (42 under
// -race), Go 1.24; 41 while the stage lowering built a slice of its own, 51
// while the job's estimates, result-cache keys and record statistics were
// maps keyed by plan node, 53 while the plan-cache key was a new string per
// lookup (twice here: the job's and pcEntry's). The ceiling keeps 27 of
// margin. Parsing, binding, normalizing or enumerating per job again costs
// several hundred more.
const recurringAllocCeiling = 67

func TestRecurringRecompileAllocCeiling(t *testing.T) {
	script := `r = SELECT Region, COUNT(*) AS n FROM Events WHERE Value > @lo GROUP BY Region;
OUTPUT r TO "out/r";`
	e := pcEngine(t, Config{})
	in := pcInput("recurring", script)
	in.Params = map[string]data.Value{"lo": data.Float(1)}
	if _, err := e.CompileAndExecute(in); err != nil {
		t.Fatal(err)
	}
	ver, err := e.Catalog.Latest("Events")
	if err != nil {
		t.Fatal(err)
	}
	publish := func() {
		if _, err := e.Catalog.BulkUpdate("Events", fixtures.Epoch, ver.Table); err != nil {
			t.Fatal(err)
		}
	}
	lo := 1.0
	resubmit := func() {
		publish()
		lo++
		in.Params["lo"] = data.Float(lo)
		if _, inst := pcEntry(t, e, in); inst != nil {
			t.Fatal("an instance serves a generation or a value it was not built for")
		}
		if _, err := e.CompileAndExecute(in); err != nil {
			t.Fatal(err)
		}
	}
	// BulkUpdate allocates too: measure it alone and take it off.
	allocs := testing.AllocsPerRun(40, resubmit) - testing.AllocsPerRun(40, publish)
	t.Logf("%.0f allocs per resubmission of a known template after a bulk update (ceiling %d)", allocs, recurringAllocCeiling)
	if allocs > recurringAllocCeiling {
		t.Errorf("%.0f allocs per resubmission of a known template after a bulk update, ceiling %d", allocs, recurringAllocCeiling)
	}
}

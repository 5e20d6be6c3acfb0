package optimizer_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"cloudviews/internal/catalog"
	"cloudviews/internal/exec"
	"cloudviews/internal/explain"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/insights"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/stats"
	"cloudviews/internal/storage"
)

// rig bundles a full compile/execute environment.
type rig struct {
	cat    *catalog.Catalog
	opt    *optimizer.Optimizer
	store  *storage.Store
	ins    *insights.Service
	signer *signature.Signer
	hist   *stats.History
	now    time.Time
}

func newRig(t *testing.T) *rig {
	t.Helper()
	cat, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{cat: cat, now: fixtures.Epoch}
	r.signer = &signature.Signer{EngineVersion: "opt-test"}
	r.hist = stats.NewHistory()
	r.store = storage.NewStore(func() time.Time { return r.now })
	r.ins = insights.NewService()
	r.ins.SetClusterEnabled("c1", true)
	r.ins.SetVCEnabled("vc1", true)
	r.opt = &optimizer.Optimizer{
		Signer:   r.signer,
		Est:      stats.NewEstimator(),
		History:  r.hist,
		Store:    r.store,
		Insights: r.ins,
	}
	return r
}

func (r *rig) bind(t *testing.T, src string) plan.Node {
	t.Helper()
	q, err := sqlparser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	b := &plan.Binder{Catalog: r.cat}
	n, err := b.BindQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return &plan.Output{Target: "out/x", Child: n}
}

// recordHistory feeds a run's observed statistics into the runtime history
// under each computed node's recurring signature, as the engine does after a
// job.
func recordHistory(h *stats.History, cr *optimizer.CompileResult, res *exec.RunResult) {
	recurring := make(map[plan.Node]signature.Sig, len(cr.Subs))
	for _, s := range cr.Subs {
		recurring[s.Node] = s.Recurring
	}
	for _, st := range res.Stats {
		if sig, ok := recurring[st.Node]; ok && st.Node.OpName() != "ViewScan" {
			h.Record(sig, stats.Observation{Rows: st.RowsOut, Bytes: st.BytesOut, Work: st.Work})
		}
	}
}

func (r *rig) execute(t *testing.T, cr *optimizer.CompileResult) *exec.RunResult {
	t.Helper()
	ex := &exec.Executor{Catalog: r.cat, Views: r.store}
	res, err := ex.Run(cr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	// Job-manager duties: seal what was spooled.
	for _, p := range cr.Proposed {
		r.store.Seal(p.Strict)
	}
	return res
}

const sharedQuery = `SELECT CustomerId, AVG(Price * Quantity) AS s
	FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id
	WHERE MktSegment = 'Asia'
	GROUP BY CustomerId`

func TestRewritePushdownConvergence(t *testing.T) {
	r := newRig(t)
	// Same semantics, filter written at different levels.
	a := r.bind(t, `SELECT Name FROM (SELECT * FROM Customer WHERE MktSegment = 'Asia') AS c`)
	b := r.bind(t, `SELECT Name FROM (SELECT * FROM Customer) AS c WHERE MktSegment = 'Asia'`)
	ra, rb := optimizer.Rewrite(a), optimizer.Rewrite(b)
	if r.signer.Strict(ra) != r.signer.Strict(rb) {
		t.Errorf("pushdown should converge:\n%s\n%s", plan.Format(ra), plan.Format(rb))
	}
}

func TestRewritePushesFilterBelowJoin(t *testing.T) {
	r := newRig(t)
	n := r.bind(t, `SELECT Price FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id WHERE MktSegment = 'Asia' AND Quantity > 3`)
	rw := optimizer.Rewrite(n)
	txt := plan.Format(rw)
	// The join node must not have a filter parent anymore; filters sit on
	// the scan sides.
	joinLine := -1
	lines := strings.Split(txt, "\n")
	for i, l := range lines {
		if strings.Contains(l, "Join[") {
			joinLine = i
		}
	}
	if joinLine < 1 {
		t.Fatalf("no join in:\n%s", txt)
	}
	if strings.Contains(lines[joinLine-1], "Filter") {
		t.Errorf("filter not pushed below join:\n%s", txt)
	}
}

func TestRewritePreservesResults(t *testing.T) {
	r := newRig(t)
	queries := []string{
		sharedQuery,
		`SELECT Name FROM (SELECT * FROM Customer) AS c WHERE MktSegment = 'Asia' AND Id > 50`,
		`SELECT Brand, COUNT(*) AS n FROM Sales JOIN Parts ON Sales.PartId = Parts.PartId WHERE Quantity > 2 AND Brand LIKE 'C%' GROUP BY Brand`,
		`SELECT Name FROM Customer WHERE Id < 10 UNION ALL SELECT Name FROM Customer WHERE Id >= 190`,
	}
	for _, q := range queries {
		n := r.bind(t, q)
		before, err := (&exec.Executor{Catalog: r.cat}).Run(n)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		after, err := (&exec.Executor{Catalog: r.cat}).Run(optimizer.Rewrite(n))
		if err != nil {
			t.Fatalf("%s (rewritten): %v", q, err)
		}
		if before.Table.Fingerprint() != after.Table.Fingerprint() {
			t.Errorf("rewrite changed results for %s", q)
		}
	}
}

// publishFor makes the given subexpression selected for materialization.
func (r *rig) publishFor(t *testing.T, root plan.Node, pick func(signature.Subexpr) bool) {
	t.Helper()
	rw := optimizer.Rewrite(plan.CloneNode(root))
	tag := r.signer.JobTag(rw)
	var anns []insights.Annotation
	for _, s := range r.signer.Subexpressions(rw) {
		if s.Eligibility == signature.EligibleOK && pick(s) {
			anns = append(anns, insights.Annotation{Recurring: s.Recurring, VC: "vc1", Utility: float64(s.NodeCount)})
		}
	}
	if len(anns) == 0 {
		t.Fatal("no eligible subexpressions matched the pick function")
	}
	r.ins.PublishAnnotations(tag, anns)
}

func TestCompileBuildsThenReuses(t *testing.T) {
	r := newRig(t)
	root := r.bind(t, sharedQuery)
	r.publishFor(t, root, func(s signature.Subexpr) bool { return s.Op == "Join" })

	opts := optimizer.CompileOptions{JobID: "job1", Cluster: "c1", VC: "vc1", OptIn: true}
	r.opt.Explain = explain.NewRecorder("job1", "vc1")
	cr1 := r.opt.Compile(root, opts)
	if policyFlight(r.opt.Explain) {
		t.Fatal("reuse should be enabled")
	}
	if len(cr1.Proposed) != 1 {
		t.Fatalf("proposed = %d, want 1", len(cr1.Proposed))
	}
	if len(cr1.Matched) != 0 {
		t.Fatalf("nothing should match on first compile")
	}
	spools := 0
	plan.Walk(cr1.Plan, func(n plan.Node) {
		if _, ok := n.(*plan.Spool); ok {
			spools++
		}
	})
	if spools != 1 {
		t.Fatalf("spools in plan = %d", spools)
	}
	res1 := r.execute(t, cr1)

	// Record history so the second compile's cost check has real numbers.
	recordHistory(r.hist, cr1, res1)

	// Second job, identical subexpression: must reuse.
	cr2 := r.opt.Compile(root, optimizer.CompileOptions{JobID: "job2", Cluster: "c1", VC: "vc1", OptIn: true})
	if len(cr2.Matched) != 1 {
		t.Fatalf("matched = %d, want 1\n%s", len(cr2.Matched), plan.Format(cr2.Plan))
	}
	if len(cr2.Proposed) != 0 {
		t.Fatalf("no new spools expected, got %d", len(cr2.Proposed))
	}
	res2 := r.execute(t, cr2)
	if res1.Table.Fingerprint() != res2.Table.Fingerprint() {
		t.Error("reuse changed query results")
	}
	var viewRead int64
	for _, st := range res2.Stats {
		if _, ok := st.Node.(*plan.ViewScan); ok {
			viewRead += st.Read
		}
	}
	if viewRead == 0 {
		t.Error("second run should read from the view")
	}
	if res2.TotalWork >= res1.TotalWork {
		t.Errorf("reuse should be cheaper: %g vs %g", res2.TotalWork, res1.TotalWork)
	}
}

func TestCompileDisabledByControls(t *testing.T) {
	r := newRig(t)
	root := r.bind(t, sharedQuery)
	r.publishFor(t, root, func(s signature.Subexpr) bool { return s.Op == "Join" })
	// VC not onboarded.
	r.opt.Explain = explain.NewRecorder("j", "vc-other")
	cr := r.opt.Compile(root, optimizer.CompileOptions{JobID: "j", Cluster: "c1", VC: "vc-other", OptIn: true})
	if !policyFlight(r.opt.Explain) || len(cr.Proposed) != 0 {
		t.Error("disabled VC must not get spools")
	}
	// Job opted out.
	r.opt.Explain = explain.NewRecorder("j", "vc1")
	cr2 := r.opt.Compile(root, optimizer.CompileOptions{JobID: "j", Cluster: "c1", VC: "vc1", OptIn: false})
	if !policyFlight(r.opt.Explain) || len(cr2.Proposed) != 0 {
		t.Error("job opt-out must disable reuse")
	}
}

// policyFlight reports whether rec holds the policy-flight decision: the
// insights controls turned reuse off for the whole job.
func policyFlight(rec *explain.Recorder) bool {
	for _, d := range rec.Decisions() {
		if d.Reason == explain.ReasonPolicyFlight {
			return true
		}
	}
	return false
}

func TestViewLockPreventsDoubleBuild(t *testing.T) {
	r := newRig(t)
	root := r.bind(t, sharedQuery)
	r.publishFor(t, root, func(s signature.Subexpr) bool { return s.Op == "Join" })
	opts1 := optimizer.CompileOptions{JobID: "j1", Cluster: "c1", VC: "vc1", OptIn: true}
	opts2 := optimizer.CompileOptions{JobID: "j2", Cluster: "c1", VC: "vc1", OptIn: true}
	cr1 := r.opt.Compile(root, opts1)
	cr2 := r.opt.Compile(root, opts2) // compiles before j1 executes
	if len(cr1.Proposed) != 1 {
		t.Fatalf("j1 proposed = %d", len(cr1.Proposed))
	}
	if len(cr2.Proposed) != 0 {
		t.Errorf("j2 must not also build (lock held): %d", len(cr2.Proposed))
	}
	if len(cr2.Matched) != 0 {
		t.Errorf("j2 must not reuse an unsealed view")
	}
}

func TestMaxViewsPerJob(t *testing.T) {
	r := newRig(t)
	r.opt.MaxViewsPerJob = 1
	root := r.bind(t, sharedQuery)
	// Select every eligible subexpression.
	r.publishFor(t, root, func(s signature.Subexpr) bool { return true })
	cr := r.opt.Compile(root, optimizer.CompileOptions{JobID: "j", Cluster: "c1", VC: "vc1", OptIn: true})
	if len(cr.Proposed) != 1 {
		t.Errorf("proposed = %d, want 1 (user cap)", len(cr.Proposed))
	}
}

func TestLargestSubexpressionWins(t *testing.T) {
	r := newRig(t)
	root := r.bind(t, sharedQuery)
	// Select both the join and the aggregate above it.
	r.publishFor(t, root, func(s signature.Subexpr) bool {
		return s.Op == "Join" || s.Op == "Aggregate"
	})
	r.opt.MaxViewsPerJob = 8
	opts := optimizer.CompileOptions{JobID: "j1", Cluster: "c1", VC: "vc1", OptIn: true}
	cr1 := r.opt.Compile(root, opts)
	res1 := r.execute(t, cr1)
	recordHistory(r.hist, cr1, res1)
	cr2 := r.opt.Compile(root, optimizer.CompileOptions{JobID: "j2", Cluster: "c1", VC: "vc1", OptIn: true})
	if len(cr2.Matched) != 1 {
		t.Fatalf("matched = %d, want exactly 1 (largest)", len(cr2.Matched))
	}
	if cr2.Matched[0].ReplacedOp == "Join" {
		t.Error("top-down matching should take the aggregate, not the join below it")
	}
}

func TestEstimatesUseViewStatistics(t *testing.T) {
	r := newRig(t)
	root := r.bind(t, sharedQuery)
	r.publishFor(t, root, func(s signature.Subexpr) bool { return s.Op == "Join" })
	opts := optimizer.CompileOptions{JobID: "j1", Cluster: "c1", VC: "vc1", OptIn: true}
	cr1 := r.opt.Compile(root, opts)
	res1 := r.execute(t, cr1)
	recordHistory(r.hist, cr1, res1)
	cr2 := r.opt.Compile(root, optimizer.CompileOptions{JobID: "j2", Cluster: "c1", VC: "vc1", OptIn: true})
	var vsEst, joinEst float64
	plan.Walk(cr2.Plan, func(n plan.Node) {
		if vs, ok := n.(*plan.ViewScan); ok {
			vsEst = cr2.Estimates[n].Rows
			_ = vs
		}
	})
	plan.Walk(cr1.Plan, func(n plan.Node) {
		if _, ok := n.(*plan.Join); ok {
			joinEst = cr1.Estimates[n].Rows
		}
	})
	if vsEst <= 0 {
		t.Fatal("no view scan estimate")
	}
	if vsEst >= joinEst {
		t.Errorf("view estimate (%g) should be far below the overestimated join (%g)", vsEst, joinEst)
	}
}

func TestStageWidthShrinksWithAccurateStats(t *testing.T) {
	r := newRig(t)
	r.cat.SetScaleFactor("Sales", 50_000) // make the job production-sized
	root := r.bind(t, sharedQuery)
	r.publishFor(t, root, func(s signature.Subexpr) bool { return s.Op == "Join" })
	opts := optimizer.CompileOptions{JobID: "j1", Cluster: "c1", VC: "vc1", OptIn: true}
	cr1 := r.opt.Compile(root, opts)
	w1 := totalWidth(optimizer.BuildStages(cr1.Plan, cr1.Estimates))
	res1 := r.execute(t, cr1)
	recordHistory(r.hist, cr1, res1)
	cr2 := r.opt.Compile(root, optimizer.CompileOptions{JobID: "j2", Cluster: "c1", VC: "vc1", OptIn: true})
	w2 := totalWidth(optimizer.BuildStages(cr2.Plan, cr2.Estimates))
	if w2 >= w1 {
		t.Errorf("reuse should shrink container request: %d vs %d", w2, w1)
	}
}

// totalWidth is the planned container request: the paper's "containers per
// job" driver.
func totalWidth(stages []optimizer.Stage) int {
	total := 0
	for _, st := range stages {
		total += st.Width
	}
	return total
}

func TestSpoolStageOffCriticalPath(t *testing.T) {
	r := newRig(t)
	root := r.bind(t, sharedQuery)
	r.publishFor(t, root, func(s signature.Subexpr) bool { return s.Op == "Join" })
	cr := r.opt.Compile(root, optimizer.CompileOptions{JobID: "j1", Cluster: "c1", VC: "vc1", OptIn: true})
	stages := optimizer.BuildStages(cr.Plan, cr.Estimates)
	spoolStage := -1
	for i, st := range stages {
		if st.IsSpool {
			spoolStage = i
		}
	}
	if spoolStage < 0 {
		t.Fatal("no spool stage")
	}
	// Nothing may depend on the spool write.
	for _, st := range stages {
		for _, d := range st.Deps {
			if d == spoolStage {
				t.Error("spool write must be a side branch")
			}
		}
	}
}

func TestNondeterministicNeverSpooled(t *testing.T) {
	r := newRig(t)
	root := r.bind(t, `SELECT Name FROM Customer WHERE MktSegment = 'Asia' AND RANDOM() < 2.0`)
	rw := optimizer.Rewrite(plan.CloneNode(root))
	tag := r.signer.JobTag(rw)
	var anns []insights.Annotation
	for _, s := range r.signer.Subexpressions(rw) {
		anns = append(anns, insights.Annotation{Recurring: s.Recurring, VC: "vc1", Utility: 1})
	}
	r.ins.PublishAnnotations(tag, anns)
	cr := r.opt.Compile(root, optimizer.CompileOptions{JobID: "j", Cluster: "c1", VC: "vc1", OptIn: true})
	if len(cr.Proposed) != 0 {
		t.Errorf("nondeterministic subexpressions must never be spooled: %+v", cr.Proposed)
	}
}

func TestEngineVersionBumpStopsMatching(t *testing.T) {
	r := newRig(t)
	root := r.bind(t, sharedQuery)
	r.publishFor(t, root, func(s signature.Subexpr) bool { return s.Op == "Join" })
	opts := optimizer.CompileOptions{JobID: "j1", Cluster: "c1", VC: "vc1", OptIn: true}
	cr1 := r.opt.Compile(root, opts)
	r.execute(t, cr1)

	// Runtime upgrade: new signer version.
	r.opt.Signer = &signature.Signer{EngineVersion: "opt-test-v2"}
	cr2 := r.opt.Compile(root, optimizer.CompileOptions{JobID: "j2", Cluster: "c1", VC: "vc1", OptIn: true})
	if len(cr2.Matched) != 0 {
		t.Error("version bump must invalidate existing views")
	}
}

// viewWinsFromSummary recomputes viewWins' verdict outside the optimizer: the
// history's mean work when there is one, else the summed compile-time
// estimate.
func viewWinsFromSummary(o *optimizer.Optimizer, n plan.Node, recurring signature.Sig, view *storage.View) (bool, float64) {
	readCost := exec.ViewReadWork(view.Rows, view.Bytes)
	if sum, ok := o.History.LookupMeans(recurring); ok && sum.AvgWork > 0 {
		return readCost < sum.AvgWork, sum.AvgWork - readCost
	}
	est, _ := o.Est.EstimatePlan(n)
	var total float64
	plan.Walk(n, func(m plan.Node) { total += est[m].Rows * 4.0e-6 })
	return readCost < total, total - readCost
}

// TestViewWinsReadsMeans: the view-versus-recompute verdict and the saving the
// explain decision reports are, to the last bit, the history's mean work
// against the view's read cost — for a subexpression never observed, observed
// once, and observed 200 times, with a mean on either side of the read cost.
func TestViewWinsReadsMeans(t *testing.T) {
	verdicts := map[bool]int{}
	for _, tc := range []struct {
		obs  int
		work float64
	}{{0, 0}, {1, 0.37}, {1, 1e-9}, {200, 0.011}, {200, 1e-9}} {
		r := newRig(t)
		root := r.bind(t, sharedQuery)
		r.publishFor(t, root, func(s signature.Subexpr) bool { return s.Op == "Join" })
		opts := optimizer.CompileOptions{JobID: "build", Cluster: "c1", VC: "vc1", OptIn: true}
		built := r.opt.Compile(root, opts)
		r.execute(t, built)
		if len(built.Proposed) != 1 {
			t.Fatalf("proposed = %d, want 1", len(built.Proposed))
		}
		p := built.Proposed[0]
		for i := 0; i < tc.obs; i++ {
			r.hist.Record(p.Recurring, stats.Observation{Rows: int64(100 + i), Bytes: int64(4096 + 7*i), Work: tc.work * (1 + float64(i%13)/7)})
		}
		var replaced plan.Node
		for _, s := range built.Subs {
			if s.Strict == p.Strict {
				replaced = s.Node
			}
		}
		view, _ := r.store.Status(p.Strict)
		wantWins, wantSaved := viewWinsFromSummary(r.opt, replaced, p.Recurring, &view)

		rec := explain.NewRecorder("again", "vc1")
		r.opt.Explain = rec
		opts.JobID = "again"
		cr := r.opt.Compile(root, opts)
		var got *explain.Decision
		for _, d := range rec.Decisions() {
			if d.Sig == p.Strict && (d.Reason == explain.ReasonMatched || d.Reason == explain.ReasonCost) {
				d := d
				got = &d
			}
		}
		if got == nil {
			t.Fatalf("%d observations: no cost decision on the view: %+v", tc.obs, rec.Decisions())
		}
		if wins := got.Reason == explain.ReasonMatched; wins != wantWins || wins != (len(cr.Matched) == 1) {
			t.Errorf("%d observations of %g: view wins = %v (%d matched), want %v", tc.obs, tc.work, wins, len(cr.Matched), wantWins)
		}
		if math.Float64bits(got.SavedCS) != math.Float64bits(wantSaved) {
			t.Errorf("%d observations of %g: saved = %v, want %v", tc.obs, tc.work, got.SavedCS, wantSaved)
		}
		verdicts[wantWins]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("one-sided: %v", verdicts)
	}
}

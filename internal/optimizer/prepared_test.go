package optimizer_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/explain"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/guard"
	"cloudviews/internal/insights"
	"cloudviews/internal/obs"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/stats"
	"cloudviews/internal/storage"
	"cloudviews/internal/workload"
)

// genWorld is one compile/execute environment over the workload generator's
// catalog and templates. The differential test drives two of them in
// lockstep: compiles stage views and take locks, so each arm needs a store
// and an insights service of its own.
type genWorld struct {
	cat   *catalog.Catalog
	store *storage.Store
	ins   *insights.Service
	opt   optimizer.Optimizer // Trace, Explain and MaxViewsPerJob set per compile
	jobs  []workload.JobInput // one per template
	roots []plan.Node
}

func newGenWorld(t *testing.T) *genWorld {
	t.Helper()
	p := workload.DefaultProfile("diff")
	p.Pipelines, p.RowsPerRawDay = 24, 80
	w := &genWorld{cat: catalog.New(), ins: insights.NewService()}
	gen := workload.NewGenerator(w.cat, p)
	if err := gen.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	w.store = storage.NewStore(func() time.Time { return fixtures.Epoch })
	w.ins.SetClusterEnabled(p.Name, true)
	for _, vc := range gen.VCNames() {
		w.ins.SetVCEnabled(vc, true)
	}
	w.opt = optimizer.Optimizer{
		Signer: &signature.Signer{EngineVersion: "diff"}, Est: stats.NewEstimator(),
		History: stats.NewHistory(), Store: w.store, Insights: w.ins,
	}
	seen := map[string]bool{}
	for _, in := range gen.JobsForDay(1) {
		if seen[in.Script] {
			continue
		}
		seen[in.Script] = true
		script, err := sqlparser.Parse(in.Script)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := (&plan.Binder{Catalog: w.cat, Params: in.Params}).BindScript(script)
		if err != nil || len(outs) != 1 {
			t.Fatalf("bind %s: %d outputs, %v", in.ID, len(outs), err)
		}
		w.jobs, w.roots = append(w.jobs, in), append(w.roots, outs[0])
	}
	return w
}

// compiled is what one compile hands back to the comparison.
type compiled struct {
	cr    *optimizer.CompileResult
	trace string
	decs  []explain.Decision
}

// compile compiles template i as job id: from prep when given, from the bound
// root otherwise.
func (w *genWorld) compile(i int, id string, maxViews int, prep *optimizer.Prepared) compiled {
	in := w.jobs[i]
	tr, rec := obs.NewTrace(id, in.Submit), explain.NewRecorder(id, in.VC)
	opt := w.opt
	opt.MaxViewsPerJob, opt.Trace, opt.Explain = maxViews, tr, rec
	opts := optimizer.CompileOptions{JobID: id, Cluster: in.Cluster, VC: in.VC, OptIn: true}
	var cr *optimizer.CompileResult
	if prep != nil {
		cr = opt.CompilePrepared(prep, opts)
	} else {
		cr = opt.Compile(w.roots[i], opts)
	}
	return compiled{cr, tr.Render(), rec.Decisions()}
}

// settle plays the job manager after a compile: run the plan, feed the runtime
// history and seal what was spooled, or (run=false) abandon what was staged.
// Either way the locks go.
func (w *genWorld) settle(t *testing.T, id string, cr *optimizer.CompileResult, run bool) {
	t.Helper()
	if run {
		ex := &exec.Executor{Catalog: w.cat, Views: w.store}
		res, err := ex.Run(cr.Plan)
		if err != nil {
			t.Fatalf("%s: exec: %v", id, err)
		}
		recordHistory(w.opt.History, cr, res)
	}
	for _, p := range cr.Proposed {
		if run {
			w.store.Seal(p.Strict)
		} else {
			w.store.Abandon(p.Strict)
		}
		w.ins.ReleaseViewLock(p.Strict, id)
	}
}

// sameSubs compares two enumerations field by field. Node is compared by
// identity when the enumerations are over one plan, and skipped otherwise.
func sameSubs(a, b []signature.Subexpr, onePlan bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if onePlan && x.Node != y.Node {
			return false
		}
		x.Node, y.Node = nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// TestCompilePreparedMatchesScratch walks every generator template through
// the four store states a candidate view can be in — nothing annotated,
// annotated with the build budget spent, annotated and unbuilt (proposed),
// sealed (matched) — in two identical worlds: one compiles each job from its
// bound root, the other from one Prepared per template, shared by all of the
// template's compiles. The two must agree on every observable product, join
// algorithms included, the enumeration each compile carried over
// substitutions must equal a cold signing of its final plan, and the shared
// Prepared must come out unwritten. Every prepared entry's inputs are where
// signature.InputPos says they are, and a join under a ViewScan's fallback
// is left to the executor (JoinAuto), as it was when physical planning
// walked the plan and never reached a fallback.
func TestCompilePreparedMatchesScratch(t *testing.T) {
	scratch, shared := newGenWorld(t), newGenWorld(t)
	signer := shared.opt.Signer
	matched, proposed, budget, inputs, fallbackJoins := 0, 0, 0, 0, 0
	for i, in := range shared.jobs {
		prep := shared.opt.Prepare(shared.roots[i])
		wantPlan := plan.Format(prep.Plan)
		wantSubs := signer.Subexpressions(prep.Plan)
		for p := range prep.Subs {
			var buf [2]plan.Node
			for k, c := range plan.Inputs(prep.Subs[p].Node, &buf) {
				if at := signature.InputPos(prep.Subs, p, k); prep.Subs[at].Node != c {
					t.Fatalf("%s: input %d of entry %d (%s) is entry %d, InputPos names %d (%s)", in.ID, k, p, prep.Subs[p].Op, at, at, prep.Subs[at].Op)
				}
				inputs++
			}
		}

		step := func(state string, maxViews int, run bool) {
			id := in.ID + "/" + state
			a, b := scratch.compile(i, id, maxViews, nil), shared.compile(i, id, maxViews, prep)
			if pa, pb := plan.Format(a.cr.Plan), plan.Format(b.cr.Plan); pa != pb {
				t.Fatalf("%s: plans differ:\nscratch:\n%s\nprepared:\n%s", id, pa, pb)
			}
			if !sameSubs(a.cr.Subs, b.cr.Subs, false) {
				t.Fatalf("%s: enumerations differ:\nscratch:  %+v\nprepared: %+v", id, a.cr.Subs, b.cr.Subs)
			}
			if !reflect.DeepEqual(a.cr.Matched, b.cr.Matched) || !reflect.DeepEqual(a.cr.Proposed, b.cr.Proposed) {
				t.Fatalf("%s: matched/proposed differ: %+v %+v vs %+v %+v", id, a.cr.Matched, a.cr.Proposed, b.cr.Matched, b.cr.Proposed)
			}
			if a.cr.Tag != b.cr.Tag || a.cr.Tag != signer.JobTag(prep.Plan) {
				t.Fatalf("%s: tags differ: %s %s %s", id, a.cr.Tag, b.cr.Tag, signer.JobTag(prep.Plan))
			}
			if !reflect.DeepEqual(a.decs, b.decs) {
				t.Fatalf("%s: explain decisions differ:\n%+v\n%+v", id, a.decs, b.decs)
			}
			if a.trace != b.trace {
				t.Fatalf("%s: traces differ:\n%s\n%s", id, a.trace, b.trace)
			}
			if ja, jb := joinAlgos(a.cr), joinAlgos(b.cr); !reflect.DeepEqual(ja, jb) {
				t.Fatalf("%s: join algorithms differ: %v vs %v", id, ja, jb)
			}
			plan.Walk(b.cr.Plan, func(n plan.Node) {
				if v, ok := n.(*plan.ViewScan); ok {
					plan.Walk(v.Fallback, func(m plan.Node) {
						if _, ok := m.(*plan.Join); ok {
							fallbackJoins++
							for _, s := range b.cr.Subs {
								if s.Node == m {
									t.Fatalf("%s: a join under a ViewScan's fallback has a position", id)
								}
							}
						}
					})
				}
			})
			if algo := b.cr.JoinAlgo(exec.NoPos); algo != plan.JoinAuto {
				t.Fatalf("%s: a join with no position was planned as %v", id, algo)
			}
			for _, c := range []compiled{a, b} {
				if cold := signer.Subexpressions(c.cr.Plan); !sameSubs(c.cr.Subs, cold, true) {
					t.Fatalf("%s: carried enumeration differs from a cold signing:\ncarried: %+v\ncold:    %+v", id, c.cr.Subs, cold)
				}
			}
			matched += len(b.cr.Matched)
			proposed += len(b.cr.Proposed)
			for _, d := range b.decs {
				if d.Reason == explain.ReasonBudget {
					budget++
				}
			}
			scratch.settle(t, id, a.cr, run)
			shared.settle(t, id, b.cr, run)
		}

		step("unannotated", 0, true)
		var anns []insights.Annotation
		for _, s := range prep.Subs {
			if s.Eligibility == signature.EligibleOK {
				anns = append(anns, insights.Annotation{Recurring: s.Recurring, VC: in.VC, Utility: float64(s.NodeCount)})
			}
		}
		scratch.ins.PublishAnnotations(prep.Tag, anns)
		shared.ins.PublishAnnotations(prep.Tag, anns)
		step("budget-spent", 1, false)
		step("proposed", 0, true)
		step("matched", 0, true)

		if got := plan.Format(prep.Plan); got != wantPlan {
			t.Fatalf("%s: shared prepared plan was rewritten:\n%s\nwas:\n%s", in.ID, got, wantPlan)
		}
		if !sameSubs(prep.Subs, wantSubs, true) {
			t.Fatalf("%s: shared prepared enumeration was written", in.ID)
		}
	}
	t.Logf("%d templates: %d matched, %d proposed, %d budget decisions, %d inputs placed, %d joins under fallbacks", len(shared.jobs), matched, proposed, budget, inputs, fallbackJoins)
	if matched == 0 || proposed == 0 || budget == 0 || inputs == 0 || fallbackJoins == 0 {
		t.Fatalf("vacuous: matched=%d proposed=%d budget decisions=%d inputs=%d fallback joins=%d over %d templates", matched, proposed, budget, inputs, fallbackJoins, len(shared.jobs))
	}
}

// joinAlgos lists the algorithm cr picked for each join of its plan, in
// position order.
func joinAlgos(cr *optimizer.CompileResult) (out []plan.JoinAlgo) {
	for i, s := range cr.Subs {
		if _, ok := s.Node.(*plan.Join); ok {
			out = append(out, cr.JoinAlgo(i))
		}
	}
	return out
}

// keysOf lists cr's result-cache keys by position, "" for none.
func keysOf(cr *optimizer.CompileResult) []signature.Sig {
	out := make([]signature.Sig, len(cr.Nodes))
	for i, nd := range cr.Nodes {
		out[i] = nd.Key
	}
	return out
}

// coldKeys signs root afresh and lists its result-cache keys by position, as
// keysOf does a compile's.
func coldKeys(signer *signature.Signer, root plan.Node) []signature.Sig {
	keys := make([]signature.Sig, plan.CountNodes(root))
	subs := signer.Sign(root, nil, func(_ plan.Node, i int, k signature.Sig) { keys[i] = k })
	return keys[:len(subs)]
}

// keyMap is cr's keys as the map Signer.Physical returns.
func keyMap(cr *optimizer.CompileResult) map[plan.Node]signature.Sig {
	m := map[plan.Node]signature.Sig{}
	for i, nd := range cr.Nodes {
		if nd.Key != "" {
			m[cr.Subs[i].Node] = nd.Key
		}
	}
	return m
}

// TestPhysicalKnownMatchesScratch walks every generator template through the
// states that shape a final plan — reuse off, the build budget spent, a cold
// build under a Spool, a warm match on a ViewScan, the matched view
// quarantined by the guard — compiling each from one shared Prepared, and
// holds the result-cache keys that CompilePrepared's Signer.Sign carried over
// from it to a cold signing of the final plan: position for position, byte
// for byte, and node for node in Physical, the probe's map.
func TestPhysicalKnownMatchesScratch(t *testing.T) {
	w := newGenWorld(t)
	signer := w.opt.Signer
	g := guard.New(guard.Config{Enabled: true})
	off, views, spools, quarantined := 0, 0, 0, 0
	for i, in := range w.jobs {
		prep := w.opt.Prepare(w.roots[i])

		step := func(state string, maxViews int, run bool) compiled {
			id := in.ID + "/" + state
			c := w.compile(i, id, maxViews, prep)
			if got, want := keysOf(c.cr), coldKeys(signer, c.cr.Plan); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: carried keys differ from a cold signing of\n%s\ncarried: %v\ncold:    %v", id, plan.Format(c.cr.Plan), got, want)
			}
			if got, want := keyMap(c.cr), signer.Physical(c.cr.Plan); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Physical differs from the positional keys of\n%s\nkeys:     %v\nPhysical: %v", id, plan.Format(c.cr.Plan), got, want)
			}
			plan.Walk(c.cr.Plan, func(n plan.Node) {
				switch n.(type) {
				case *plan.ViewScan:
					views++
				case *plan.Spool:
					spools++
				}
			})
			w.settle(t, id, c.cr, run)
			return c
		}

		w.ins.SetVCEnabled(in.VC, false)
		if c := step("reuse-off", 0, true); len(c.decs) > 0 && c.decs[0].Reason == explain.ReasonPolicyFlight {
			off++
		}
		w.ins.SetVCEnabled(in.VC, true)
		var anns []insights.Annotation
		for _, s := range prep.Subs {
			if s.Eligibility == signature.EligibleOK {
				anns = append(anns, insights.Annotation{Recurring: s.Recurring, VC: in.VC, Utility: float64(s.NodeCount)})
			}
		}
		w.ins.PublishAnnotations(prep.Tag, anns)
		step("budget-spent", 1, false)
		step("proposed", 0, true)
		if m := step("matched", 0, true).cr.Matched; len(m) > 0 {
			g.TripBreaker(0, m[0].Recurring)
			w.opt.Guard = g
			for _, d := range step("quarantined", 0, true).decs {
				if d.Reason == explain.ReasonGuardQuarantine {
					quarantined++
				}
			}
			w.opt.Guard = nil
		}
	}
	t.Logf("%d templates: %d compiled with reuse off, %d ViewScans, %d Spools, %d quarantine decisions", len(w.jobs), off, views, spools, quarantined)
	if off == 0 || views == 0 || spools == 0 || quarantined == 0 {
		t.Fatalf("vacuous: reuse off=%d ViewScans=%d Spools=%d quarantined=%d", off, views, spools, quarantined)
	}
}

// TestConcurrentCompilesFromOnePrepared: goroutines compile join-bearing
// templates from one Prepared each while its views are sealed, half of them
// opted in (a ViewScan is substituted and everything above it rebuilt), half
// with the VC's jobs opted out (the joins stay, shared).
// Each compile must carry over exactly what a cold signing of its plan
// gives, and the Prepared must come out equal to a fresh one; under -race a
// write to it is reported.
func TestConcurrentCompilesFromOnePrepared(t *testing.T) {
	w := newGenWorld(t)
	signer := w.opt.Signer
	tried := 0
	for i, in := range w.jobs {
		prep := w.opt.Prepare(w.roots[i])
		joins := 0
		plan.Walk(prep.Plan, func(n plan.Node) {
			if _, ok := n.(*plan.Join); ok {
				joins++
			}
		})
		if joins == 0 || tried == 6 {
			continue
		}
		tried++
		var anns []insights.Annotation
		for _, s := range prep.Subs {
			if s.Eligibility == signature.EligibleOK {
				anns = append(anns, insights.Annotation{Recurring: s.Recurring, VC: in.VC, Utility: float64(s.NodeCount)})
			}
		}
		w.ins.PublishAnnotations(prep.Tag, anns)
		for _, state := range []string{"proposed", "more"} { // until every selected view is sealed
			id := in.ID + "/" + state
			w.settle(t, id, w.compile(i, id, 64, prep).cr, true)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 10; k++ {
					id := fmt.Sprintf("%s/g%d-%d", in.ID, g, k)
					opt := w.opt
					cr := opt.CompilePrepared(prep, optimizer.CompileOptions{JobID: id, Cluster: in.Cluster, VC: in.VC, OptIn: k%2 == 0})
					if len(cr.Proposed) != 0 || (len(cr.Matched) > 0) != (k%2 == 0) {
						t.Errorf("%s: %d proposed, %d matched", id, len(cr.Proposed), len(cr.Matched))
						return
					}
					if cold := signer.Subexpressions(cr.Plan); !sameSubs(cr.Subs, cold, true) {
						t.Errorf("%s: carried enumeration differs from a cold signing", id)
					}
					if cold := coldKeys(signer, cr.Plan); !reflect.DeepEqual(keysOf(cr), cold) {
						t.Errorf("%s: carried keys differ from a cold signing", id)
					}
				}
			}(g)
		}
		wg.Wait()
		fresh := w.opt.Prepare(w.roots[i])
		if plan.Format(prep.Plan) != plan.Format(fresh.Plan) || !sameSubs(prep.Subs, fresh.Subs, false) || prep.Tag != fresh.Tag {
			t.Errorf("%s: the shared Prepared differs from a fresh one", in.ID)
		}
	}
	if tried == 0 {
		t.Fatal("no join-bearing template")
	}
}

// formatFixpointRewrite is Rewrite as it was before the fixpoint test became
// a pointer comparison: two rendered plans per round.
func formatFixpointRewrite(root plan.Node) plan.Node {
	n := plan.NormalizeNode(root)
	for i := 0; i < 8; i++ {
		next := plan.NormalizeNode(optimizer.PushDownOnce(n))
		if plan.Format(next) == plan.Format(n) {
			return next
		}
		n = next
	}
	return n
}

// TestRewriteFixpointByPointer: stopping when no rule fired gives the plan
// (and so the signatures) that stopping on equal renderings gave.
func TestRewriteFixpointByPointer(t *testing.T) {
	w := newGenWorld(t)
	signer := w.opt.Signer
	for i, root := range w.roots {
		got, want := optimizer.Rewrite(plan.CloneNode(root)), formatFixpointRewrite(plan.CloneNode(root))
		if g, f := plan.Format(got), plan.Format(want); g != f {
			t.Errorf("%s: rewrite differs:\n%s\nwant:\n%s", w.jobs[i].ID, g, f)
		}
		if !sameSubs(signer.Subexpressions(got), signer.Subexpressions(want), false) {
			t.Errorf("%s: rewritten plans sign differently", w.jobs[i].ID)
		}
	}
}

// TestReboundCopiesOnlyThePathToAParam: binding a template node's parameters
// copies the node and the expressions on a path to a Param, shares every
// other subtree with the template, leaves the template's values as they were,
// and returns a node holding no Param itself.
func TestReboundCopiesOnlyThePathToAParam(t *testing.T) {
	a := &plan.ColRef{Index: 0, Typ: data.KindInt}
	one := &plan.Const{Val: data.Int(1)}
	lo := &plan.Param{Name: "lo", Val: data.Int(5)}
	sum := &plan.Binary{Op: "+", L: a, R: lo}
	call := &plan.Call{Name: "COALESCE", Args: []plan.Expr{one, lo, a}}
	proj := &plan.Project{Exprs: []plan.Expr{a, sum, call}, Names: []string{"a", "s", "c"}}
	vals := map[string]data.Value{"lo": data.Int(9)}

	filter := &plan.Filter{Pred: &plan.Binary{Op: "<", L: a, R: one}}
	if got := optimizer.Rebound(filter, vals); got != plan.Node(filter) {
		t.Errorf("a node with no Param was copied")
	}
	got, ok := optimizer.Rebound(proj, vals).(*plan.Project)
	if !ok || got == proj {
		t.Fatalf("a node with a Param was not copied: %v", got)
	}
	if got.Exprs[0] != plan.Expr(a) {
		t.Errorf("the Param-free expression was copied")
	}
	s, ok := got.Exprs[1].(*plan.Binary)
	if !ok || s == sum || s.L != plan.Expr(a) || s.R.(*plan.Param).Val != data.Int(9) {
		t.Errorf("the sum was not rebuilt around its Param alone: %#v", got.Exprs[1])
	}
	c, ok := got.Exprs[2].(*plan.Call)
	if !ok || c == call || c.Args[0] != plan.Expr(one) || c.Args[2] != plan.Expr(a) || c.Args[1].(*plan.Param).Val != data.Int(9) {
		t.Errorf("the call was not rebuilt around its Param alone: %#v", got.Exprs[2])
	}
	if lo.Val != data.Int(5) || call.Args[1] != plan.Expr(lo) || sum.R != plan.Expr(lo) {
		t.Errorf("the template was written")
	}
}

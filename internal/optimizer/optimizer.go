package optimizer

import (
	"fmt"
	"time"

	"cloudviews/internal/exec"
	"cloudviews/internal/explain"
	"cloudviews/internal/guard"
	"cloudviews/internal/insights"
	"cloudviews/internal/obs"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/stats"
	"cloudviews/internal/storage"
)

// Optimizer compiles bound logical plans into executable plans with
// CloudViews reuse applied.
type Optimizer struct {
	Signer   *signature.Signer
	Est      *stats.Estimator
	History  *stats.History
	Store    storage.Engine
	Insights *insights.Service
	// Guard, when non-nil, gates reuse decisions: the per-VC kill switch is
	// consulted once per job and per-signature circuit breakers per candidate
	// view. A nil guard (the default) admits everything.
	Guard *guard.Guard
	// MaxViewsPerJob is the user control bounding spools per job (0 = 4).
	MaxViewsPerJob int
	// Trace, when set, receives the compile-phase spans and every
	// view-reuse decision (matched, rejected + reason, proposed).
	Trace *obs.Trace
	// Explain, when set, receives a structured explain.Decision for every
	// reuse decision point — the typed counterpart of the Trace strings.
	// Nil-safe: a disabled observability stack carries a nil recorder.
	Explain *explain.Recorder
}

// ProposedView describes a spool the optimizer inserted.
type ProposedView struct {
	Strict    signature.Sig
	Recurring signature.Sig
	Path      string
}

// MatchedView describes a subexpression replaced by a ViewScan.
type MatchedView struct {
	Strict     signature.Sig
	Recurring  signature.Sig
	ReplacedOp string
	Rows       int64
	Bytes      int64
	// Saved is the estimated container-seconds of recomputation the view
	// avoids — the promised benefit the guard's breakers bank on a clean
	// match and forfeit on a read fallback.
	Saved float64
}

// CompileResult is the output of Compile.
type CompileResult struct {
	Plan      plan.Node
	Estimates map[plan.Node]stats.Estimate
	Tag       signature.Tag
	Matched   []MatchedView
	Proposed  []ProposedView
	// Subs is the FINAL plan's subexpression enumeration in post-order: every
	// node's strict and recurring signature and eligibility, the one the
	// repository record is built from.
	Subs []signature.Subexpr
	// CompileLatency accumulates the simulated insights round trips.
	CompileLatency time.Duration
	// ReuseEnabled records whether CloudViews participated at all.
	ReuseEnabled bool
}

// CompileOptions carries the job context the controls need.
type CompileOptions struct {
	JobID   string
	Cluster string
	VC      string
	// OptIn is the job-level toggle (default true in callers that don't
	// expose it).
	OptIn bool
}

func (o *Optimizer) maxViews() int {
	if o.MaxViewsPerJob <= 0 {
		return 4
	}
	return o.MaxViewsPerJob
}

// Prepared is the job-independent half of a compilation: the normalized plan,
// its subexpression enumeration and the job tag. All three are pure functions
// of (bound root, signer), so one Prepared serves every submission of a
// recurring script; it is shared between jobs and never written.
type Prepared struct {
	Plan plan.Node
	Subs []signature.Subexpr
	Tag  signature.Tag
}

// Prepare normalizes and signs a bound root. The input plan is not mutated.
func (o *Optimizer) Prepare(root plan.Node) *Prepared {
	p := Rewrite(plan.CloneNode(root))
	subs := o.Signer.Subexpressions(p)
	return &Prepared{Plan: p, Subs: subs, Tag: signature.TagForTemplate(subs[len(subs)-1].Recurring)}
}

// Compile runs the full pipeline: rewrites → annotation fetch → top-down view
// matching → bottom-up view-build proposal → statistics refresh → physical
// planning. The input plan is not mutated.
func (o *Optimizer) Compile(root plan.Node, opts CompileOptions) *CompileResult {
	return o.CompilePrepared(o.Prepare(root), opts)
}

// CompilePrepared runs the per-job half of Compile over a prepared plan.
func (o *Optimizer) CompilePrepared(prep *Prepared, opts CompileOptions) *CompileResult {
	res := &CompileResult{Tag: prep.Tag}
	// The job works on its own copy (chooseJoinAlgorithms writes Join.Algo);
	// known carries the prepared signatures over to the copy's nodes and, in
	// matchViews and buildViews, on to the nodes rebuilt above a substitution.
	known := make(map[plan.Node]*signature.Subexpr, len(prep.Subs))
	next := 0
	p := cloneKnown(prep.Plan, prep.Subs, &next, known)

	var disabledBy string
	enabled := false
	if o.Insights != nil {
		disabledBy = o.Insights.DisabledReason(opts.Cluster, opts.VC, opts.OptIn)
		enabled = disabledBy == ""
	}
	if !enabled {
		o.Trace.Event("reuse.disabled", "controls disabled CloudViews for this job")
		o.Explain.Record("", "", explain.ReasonPolicyFlight, 0, explain.PolicyDetail(disabledBy))
	} else if !o.Guard.AllowReuse(opts.VC, opts.JobID) {
		// The guard's per-VC kill switch: the job compiles without reuse,
		// exactly as if the VC had opted out — degraded, never wrong.
		enabled = false
		o.Trace.Event("reuse.disabled", "guard kill switch disabled CloudViews for this VC")
		o.Explain.Record("", "", explain.ReasonVCKilled, 0, explain.DetailKillSwitch)
	}
	res.ReuseEnabled = enabled

	var annSet map[signature.Sig]insights.Annotation
	if enabled {
		anns, lat := o.Insights.FetchAnnotations(res.Tag)
		res.CompileLatency += lat
		o.Trace.Span("insights", lat)
		o.Trace.Event("insights.annotations", fmt.Sprintf("count=%d tag=%s", len(anns), signature.Sig(res.Tag).Short()))
		annSet = make(map[signature.Sig]insights.Annotation, len(anns))
		for _, a := range anns {
			annSet[a.Recurring] = a
		}
	}

	if enabled {
		// Core search: top-down enumeration for matching views (larger
		// subexpressions first).
		p = o.matchViews(p, opts, annSet, known, res)
		// Follow-up optimization: bottom-up enumeration for building views.
		p = o.buildViews(p, opts, annSet, known, res)
	}
	o.Trace.Span("optimize", 0)

	// Final enumeration over the rewritten plan.
	res.Subs = o.Signer.SubexpressionsKnown(p, known)

	// Statistics refresh + physical planning.
	res.Estimates = o.estimateWithHistory(p, res.Subs)
	chooseJoinAlgorithms(p, res.Estimates)

	res.Plan = p
	return res
}

// cloneKnown deep-copies a prepared plan and maps every copied node to the
// enumeration entry of its original. subs is in post-order, so the next
// unclaimed entry belongs to the node being copied — or, for a Spool, which
// the enumeration looks through, to none.
func cloneKnown(n plan.Node, subs []signature.Subexpr, next *int, known map[plan.Node]*signature.Subexpr) plan.Node {
	children := n.Children()
	for i, c := range children {
		children[i] = cloneKnown(c, subs, next, known)
	}
	cp := n.WithChildren(children)
	if *next < len(subs) && subs[*next].Node == n {
		known[cp] = &subs[*next]
		*next++
	}
	return cp
}

// withChildren maps rec over n's children (Children returns a fresh slice)
// and rebuilds n only if one changed. The rebuilt node stands for the same
// subexpression — ViewScan and Spool are transparent to signatures — so it
// inherits n's enumeration entry.
func withChildren(n plan.Node, rec func(plan.Node) plan.Node, known map[plan.Node]*signature.Subexpr) plan.Node {
	children := n.Children()
	changed := false
	for i, c := range children {
		if nc := rec(c); nc != c {
			children[i], changed = nc, true
		}
	}
	if !changed {
		return n
	}
	m := n.WithChildren(children)
	known[m] = known[n]
	return m
}

// reject is the single choke point for candidate-view rejections: it emits
// the view.rejected trace event (detail format unchanged — "sig=… reason=…")
// and records the structured decision. The root package's explain lint test
// pins the "view.rejected" literal to this file so no call site can bypass
// the reason enum.
func (o *Optimizer) reject(sig signature.Sig, candidate string, reason explain.Reason, saved float64, detail string) {
	o.Trace.Event("view.rejected", fmt.Sprintf("sig=%s reason=%s", sig.Short(), reason))
	o.Explain.Record(sig, candidate, reason, saved, detail)
}

// matchViews replaces available materialized subexpressions with ViewScans,
// top-down so the largest match wins. The plan with the view is adopted only
// if its cost is lower (with runtime history this reduces to comparing the
// view read cost against the observed recompute cost).
func (o *Optimizer) matchViews(root plan.Node, opts CompileOptions, annSet map[signature.Sig]insights.Annotation, known map[plan.Node]*signature.Subexpr, res *CompileResult) plan.Node {
	var rec func(n plan.Node) plan.Node
	rec = func(n plan.Node) plan.Node {
		s := known[n]
		if s != nil && s.Eligibility == signature.EligibleOK && o.Store != nil {
			if view, exists := o.Store.Lookup(s.Strict); exists {
				// State before Available: Available lazily evicts expired
				// entries, so it must not run before the reason is read.
				state := o.Store.State(s.Strict)
				if !o.Guard.AllowMatch(opts.VC, opts.JobID, s.Recurring) {
					// Quarantined by a circuit breaker: skip this view, keep
					// descending — smaller healthy matches below still apply.
					o.reject(s.Strict, n.OpName(), explain.ReasonGuardQuarantine, o.savedIfExplaining(n, s.Recurring, view), "")
				} else if o.Store.Available(s.Strict) {
					if wins, saved := o.viewWins(n, s.Recurring, view); wins {
						// The event value carries the estimated container-
						// seconds of recomputation the view avoids, so the
						// telemetry critical-path analyzer can aggregate
						// "time saved by reuse" without parsing details.
						o.Trace.EventV("view.matched", fmt.Sprintf("sig=%s op=%s rows=%d", s.Strict.Short(), n.OpName(), view.Rows), saved)
						o.Explain.Record(s.Strict, n.OpName(), explain.ReasonMatched, saved, "")
						res.Matched = append(res.Matched, MatchedView{
							Strict:     s.Strict,
							Recurring:  s.Recurring,
							ReplacedOp: n.OpName(),
							Rows:       view.Rows,
							Bytes:      view.Bytes,
							Saved:      saved,
						})
						return &plan.ViewScan{
							StrictSig:    string(s.Strict),
							RecurringSig: string(s.Recurring),
							Path:         view.Path,
							Out:          n.Schema(),
							Rows:         view.Rows,
							Bytes:        view.Bytes,
							ReplacedOp:   n.OpName(),
							Fallback:     n,
						}
					} else {
						o.reject(s.Strict, n.OpName(), explain.ReasonCost, saved, "")
					}
				} else {
					// Not servable: expired, or not materialized yet
					// (pending/unsealed/sealing) — the state collapses onto
					// the closed reason enum.
					o.reject(s.Strict, n.OpName(), explain.ReasonForState(state), o.savedIfExplaining(n, s.Recurring, view), "")
				}
			} else if o.Explain != nil {
				// No artifact at all. Structured-only classification (no
				// trace event existed for this case and none is added): the
				// candidate either was never selected by the insights view
				// selection, or is selected and awaiting its first build.
				if _, selected := annSet[s.Recurring]; !selected {
					o.Explain.Record(s.Strict, n.OpName(), explain.ReasonNoAnnotation, 0, "")
				} else {
					o.Explain.Record(s.Strict, n.OpName(), explain.ReasonNotMaterialized, 0, explain.DetailSelectedNotBuilt)
				}
			}
		}
		return withChildren(n, rec, known)
	}
	return rec(root)
}

// viewWins decides whether scanning the materialized view beats recomputing
// the subexpression; saved is the estimated container-seconds of recompute
// cost the view avoids (positive exactly when the view wins).
func (o *Optimizer) viewWins(n plan.Node, recurring signature.Sig, view *storage.View) (wins bool, saved float64) {
	readCost := exec.ViewReadWork(view.Rows, view.Bytes)
	if o.History != nil {
		if sum, ok := o.History.Lookup(recurring); ok && sum.AvgWork > 0 {
			return readCost < sum.AvgWork, sum.AvgWork - readCost
		}
	}
	// No history: fall back to the compile-time estimate of the subtree.
	// Summed in plan order: map order would move the last bits between runs.
	est, _ := o.Est.EstimatePlan(n)
	var total float64
	plan.Walk(n, func(m plan.Node) {
		total += est[m].Rows * 4.0e-6 // generic per-row cost
	})
	return readCost < total, total - readCost
}

// savedIfExplaining estimates the container-seconds a rejected candidate
// would have saved — but only when an explain recorder is attached: the
// estimate can walk the subtree when there is no runtime history, and the
// rejection paths that need it are not worth that cost for tracing alone.
func (o *Optimizer) savedIfExplaining(n plan.Node, recurring signature.Sig, view *storage.View) float64 {
	if o.Explain == nil {
		return 0
	}
	_, saved := o.viewWins(n, recurring, view)
	return saved
}

// buildViews inserts Spool operators (bottom-up) on selected subexpressions
// that are not yet materialized, acquiring the insights view lock so exactly
// one concurrent job builds each artifact.
func (o *Optimizer) buildViews(root plan.Node, opts CompileOptions, annSet map[signature.Sig]insights.Annotation, known map[plan.Node]*signature.Subexpr, res *CompileResult) plan.Node {
	if len(annSet) == 0 || o.Store == nil {
		return root
	}
	built := 0
	var rec func(n plan.Node) plan.Node
	rec = func(n plan.Node) plan.Node {
		n = withChildren(n, rec, known)
		switch n.(type) {
		case *plan.Spool, *plan.ViewScan, *plan.Output:
			return n
		}
		s := known[n]
		if built >= o.maxViews() {
			// Budget spent. With an explain recorder, classify whether this
			// node would otherwise have been built so the forfeited candidate
			// is attributable to the budget.
			if o.Explain != nil && s.Eligibility == signature.EligibleOK {
				if _, selected := annSet[s.Recurring]; selected &&
					!o.Store.Available(s.Strict) && !o.Store.InFlight(s.Strict) {
					o.Explain.Record(s.Strict, n.OpName(), explain.ReasonBudget, 0, "")
				}
			}
			return n
		}
		if s.Eligibility != signature.EligibleOK {
			return n
		}
		if _, selected := annSet[s.Recurring]; !selected {
			return n
		}
		if o.Store.Available(s.Strict) || o.Store.InFlight(s.Strict) {
			return n
		}
		if !o.Insights.AcquireViewLock(s.Strict, opts.JobID) {
			o.reject(s.Strict, n.OpName(), explain.ReasonLockHeld, 0, "")
			return n
		}
		// The store derives the path (it owns per-incarnation generations:
		// a signature re-staged after a purge must land on a fresh path);
		// from here it is threaded through stage, trace, proposal, and spool.
		path := o.Store.PathFor(opts.VC, s.Strict)
		o.Store.Stage(s.Strict, s.Recurring, path, opts.VC)
		built++
		o.Trace.Event("view.proposed", fmt.Sprintf("sig=%s path=%s", s.Strict.Short(), path))
		res.Proposed = append(res.Proposed, ProposedView{Strict: s.Strict, Recurring: s.Recurring, Path: path})
		return &plan.Spool{Child: n, StrictSig: string(s.Strict), Path: path, VC: opts.VC}
	}
	return rec(root)
}

// estimateWithHistory folds compile-time estimates bottom-up but overrides
// any node whose recurring signature has runtime history — the paper's
// statistics feedback ("feed more accurate statistics from the previously
// materialized subexpressions to the rest of the query plan").
func (o *Optimizer) estimateWithHistory(root plan.Node, subs []signature.Subexpr) map[plan.Node]stats.Estimate {
	var recurring map[plan.Node]signature.Sig // nil lookups miss
	if o.History != nil {
		recurring = make(map[plan.Node]signature.Sig, len(subs))
		for _, s := range subs {
			recurring[s.Node] = s.Recurring
		}
	}
	memo := make(map[plan.Node]stats.Estimate)
	var rec func(n plan.Node) stats.Estimate
	rec = func(n plan.Node) stats.Estimate {
		children := n.Children()
		ce := make([]stats.Estimate, len(children))
		for i, c := range children {
			ce[i] = rec(c)
		}
		est := o.Est.EstimateNode(n, ce)
		if sig, ok := recurring[n]; ok {
			if sum, found := o.History.LookupMeans(sig); found && sum.Count > 0 {
				est = stats.Estimate{Rows: sum.AvgRows, Bytes: sum.AvgBytes}
			}
		}
		memo[n] = est
		return est
	}
	rec(root)
	return memo
}

package optimizer

import (
	"fmt"
	"strconv"
	"sync"
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
	// Trace, when set, receives the compile-phase spans and the timeline
	// events that are not reuse decisions (annotations served, views
	// proposed).
	Trace *obs.Trace
	// Explain, when set, receives the one record of every reuse decision: an
	// explain.Decision per decision point. Nil-safe: a disabled
	// observability stack carries a nil recorder.
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
	// Physical holds the final plan's result-cache key per node, the
	// executor's SigMap: Subs' strict signature below any ViewScan or Spool.
	// signature.Signer.Sign computes both in one walk.
	Physical map[plan.Node]signature.Sig
	// CompileLatency accumulates the simulated insights round trips.
	CompileLatency time.Duration

	history *stats.History // what the job compiled against; nil reads nothing
}

// ObservedRows returns the mean logical rows runtime history recorded for
// node n of the final plan, found in Subs by its recurring signature (half of
// the executor's exec.Compiled). A node history has not seen, or one outside
// Subs, reports nothing; the compile-time model's estimate never answers.
func (cr *CompileResult) ObservedRows(n plan.Node) (float64, bool) {
	if cr.history == nil {
		return 0, false
	}
	for i := range cr.Subs {
		if cr.Subs[i].Node == n {
			sum, ok := cr.history.LookupMeans(cr.Subs[i].Recurring)
			return sum.AvgRows, ok && sum.Count > 0
		}
	}
	return 0, false
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
// its subexpression enumeration and the job tag. All are pure functions of
// (bound root, signer), so one Prepared serves every submission of a script
// against the same dataset versions and parameter values, and Derive carries
// it over to other versions and values; it is shared between jobs and never
// written. The plan holds no ViewScan and no Spool, so every node's
// result-cache key is its strict signature in Subs.
type Prepared struct {
	Plan plan.Node
	// Subs has exactly one entry per node of Plan, in post-order: a job finds
	// a node's entry by position (signature.InputPos).
	Subs []signature.Subexpr
	Tag  signature.Tag
	// params is every parameter reference of the bound script, with the value
	// this Prepared was built with.
	params []plan.Param

	// What the first Derive from this Prepared works out (a script seen once
	// never pays for it): whether normalization's order could have depended
	// on a parameter value, and the strict attribute rendering of Subs[i].Node
	// (plan.AppendAttrs) where no job can change it — "" for a Scan or a node
	// holding a Param.
	shapeOnce sync.Once
	hazard    bool
	attrs     []string
}

// Prepare normalizes and signs a bound root. The input plan is not mutated,
// and the result shares the nodes and expressions rewriting leaves as they
// are, so the caller does not write root afterwards: nothing does, a bound
// plan being read-only like a Prepared one.
func (o *Optimizer) Prepare(root plan.Node) *Prepared {
	p := Rewrite(root)
	subs := o.Signer.Subexpressions(p)
	return &Prepared{
		Plan: p, Subs: subs,
		Tag:    signature.TagForTemplate(subs[len(subs)-1].Recurring),
		params: boundParams(root),
	}
}

// Compile runs the full pipeline: rewrites → annotation fetch → top-down view
// matching → bottom-up view-build proposal → statistics refresh → physical
// planning. The input plan is not mutated.
func (o *Optimizer) Compile(root plan.Node, opts CompileOptions) *CompileResult {
	return o.CompilePrepared(o.Prepare(root), opts)
}

// CompilePrepared runs the per-job half of Compile over a prepared plan.
func (o *Optimizer) CompilePrepared(prep *Prepared, opts CompileOptions) *CompileResult {
	res := &CompileResult{Tag: prep.Tag, history: o.History}
	// The job reads the prepared plan in place and writes none of it; it owns
	// only the nodes it rebuilds above a substitution.
	p := prep.Plan

	var disabledBy string
	enabled := false
	if o.Insights != nil {
		disabledBy = o.Insights.DisabledReason(opts.Cluster, opts.VC, opts.OptIn)
		enabled = disabledBy == ""
	}
	if !enabled {
		o.Explain.Record("", "", explain.ReasonPolicyFlight, 0, explain.PolicyDetail(disabledBy))
	} else if !o.Guard.AllowReuse(opts.VC, opts.JobID) {
		// The guard's per-VC kill switch: the job compiles without reuse,
		// exactly as if the VC had opted out — degraded, never wrong.
		enabled = false
		o.Explain.Record("", "", explain.ReasonVCKilled, 0, explain.DetailKillSwitch)
	}

	var annSet map[signature.Sig]insights.Annotation
	if enabled {
		anns, lat := o.Insights.FetchAnnotations(res.Tag)
		res.CompileLatency += lat
		o.Trace.Span("insights", lat)
		if o.Trace != nil {
			// Concatenated, not formatted: the detail is the event's one
			// allocation on every onboarded job.
			o.Trace.Event("insights.annotations", "count="+strconv.Itoa(len(anns))+" tag="+signature.Sig(res.Tag).Short())
		}
		annSet = make(map[signature.Sig]insights.Annotation, len(anns))
		for _, a := range anns {
			annSet[a.Recurring] = a
		}
	}

	if enabled {
		// Core search: top-down enumeration for matching views (larger
		// subexpressions first).
		p = o.matchViews(p, prep.Subs, opts, annSet, res)
		// Follow-up optimization: bottom-up enumeration for building views.
		p = o.buildViews(p, prep.Subs, opts, annSet, res)
	}
	o.Trace.Span("optimize", 0)

	// One walk enumerates the rewritten plan and keys it: only what sits on
	// or above a substituted ViewScan or Spool is signed here.
	res.Subs, res.Physical = o.Signer.Sign(p, prep.Subs)

	// Statistics refresh; physical planning reads the estimates (JoinAlgo).
	res.Estimates = o.estimateWithHistory(p, res.Subs)

	res.Plan = p
	return res
}

// mapInputs maps rec over the inputs of n, the node at position i of a
// Prepared's subs, handing each its own position, and rebuilds n only if one
// changed.
func mapInputs(n plan.Node, subs []signature.Subexpr, i int, rec func(plan.Node, int) plan.Node) plan.Node {
	k := 0 // plan.MapInputs calls once per input, left to right
	return plan.MapInputs(n, func(c plan.Node) plan.Node {
		c = rec(c, signature.InputPos(subs, i, k))
		k++
		return c
	})
}

// matchViews replaces available materialized subexpressions with ViewScans,
// top-down so the largest match wins. The plan with the view is adopted only
// if its cost is lower (with runtime history this reduces to comparing the
// view read cost against the observed recompute cost). Every candidate it
// considers leaves exactly one explain decision.
func (o *Optimizer) matchViews(root plan.Node, subs []signature.Subexpr, opts CompileOptions, annSet map[signature.Sig]insights.Annotation, res *CompileResult) plan.Node {
	var rec func(n plan.Node, i int) plan.Node
	rec = func(n plan.Node, i int) plan.Node {
		s := &subs[i]
		if s.Eligibility == signature.EligibleOK && o.Store != nil {
			view, state := o.Store.Status(s.Strict)
			switch {
			case state == storage.StateAbsent || state == storage.StatePending:
				// No artifact yet: the candidate either was never selected by
				// the insights view selection, or is selected and awaiting its
				// first build.
				if o.Explain != nil {
					reason, detail := explain.ReasonNoAnnotation, ""
					if _, selected := annSet[s.Recurring]; selected {
						reason, detail = explain.ReasonNotMaterialized, explain.DetailSelectedNotBuilt
					}
					o.Explain.Record(s.Strict, n.OpName(), reason, 0, detail)
				}
			case !o.Guard.AllowMatch(opts.VC, opts.JobID, s.Recurring):
				// Quarantined by a circuit breaker: skip this view, keep
				// descending — smaller healthy matches below still apply.
				o.Explain.Record(s.Strict, n.OpName(), explain.ReasonGuardQuarantine, o.savedIfExplaining(n, s.Recurring, &view), "")
			case !state.Servable():
				// Expired, or not readable yet (unsealed/sealing) — the state
				// collapses onto the closed reason enum.
				o.Explain.Record(s.Strict, n.OpName(), explain.ReasonForState(state.String()), o.savedIfExplaining(n, s.Recurring, &view), "")
			default:
				wins, saved := o.viewWins(n, s.Recurring, &view)
				if !wins {
					o.Explain.Record(s.Strict, n.OpName(), explain.ReasonCost, saved, "")
					break
				}
				// The decision carries the estimated container-seconds of
				// recomputation the view avoids: telemetry's "time saved by
				// reuse" is the sum of these.
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
			}
		}
		return mapInputs(n, subs, i, rec)
	}
	return rec(root, len(subs)-1)
}

// viewWins decides whether scanning the materialized view beats recomputing
// the subexpression; saved is the estimated container-seconds of recompute
// cost the view avoids (positive exactly when the view wins).
func (o *Optimizer) viewWins(n plan.Node, recurring signature.Sig, view *storage.View) (wins bool, saved float64) {
	readCost := exec.ViewReadWork(view.Rows, view.Bytes)
	if o.History != nil {
		if sum, ok := o.History.LookupMeans(recurring); ok && sum.AvgWork > 0 {
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
// rejection paths that need it are not worth that cost when nothing records
// the decision.
func (o *Optimizer) savedIfExplaining(n plan.Node, recurring signature.Sig, view *storage.View) float64 {
	if o.Explain == nil {
		return 0
	}
	_, saved := o.viewWins(n, recurring, view)
	return saved
}

// buildViews inserts Spool operators (bottom-up) on selected subexpressions
// that are not yet materialized, acquiring the insights view lock so exactly
// one concurrent job builds each artifact. A ViewScan in root stands for the
// position in subs it replaced.
func (o *Optimizer) buildViews(root plan.Node, subs []signature.Subexpr, opts CompileOptions, annSet map[signature.Sig]insights.Annotation, res *CompileResult) plan.Node {
	if len(annSet) == 0 || o.Store == nil {
		return root
	}
	built := 0
	var rec func(n plan.Node, i int) plan.Node
	rec = func(n plan.Node, i int) plan.Node {
		n = mapInputs(n, subs, i, rec)
		switch n.(type) {
		case *plan.ViewScan, *plan.Output:
			return n
		}
		s := &subs[i]
		if s.Eligibility != signature.EligibleOK {
			return n
		}
		if _, selected := annSet[s.Recurring]; !selected {
			return n
		}
		spent := built >= o.maxViews()
		if spent && o.Explain == nil {
			return n
		}
		// Buildable means nobody serves or is producing the signature.
		if _, state := o.Store.Status(s.Strict); state.Servable() || state.Building() {
			return n
		}
		if spent {
			// Budget spent: the candidate would otherwise have been built, so
			// the forfeit is attributable to the budget.
			o.Explain.Record(s.Strict, n.OpName(), explain.ReasonBudget, 0, "")
			return n
		}
		if !o.Insights.AcquireViewLock(s.Strict, opts.JobID) {
			o.Explain.Record(s.Strict, n.OpName(), explain.ReasonLockHeld, 0, "")
			return n
		}
		// The store derives the path (it owns per-incarnation generations:
		// a signature re-staged after a purge must land on a fresh path);
		// from here it is threaded through stage, trace, proposal, and spool.
		path := o.Store.PathFor(opts.VC, s.Strict)
		o.Store.Stage(s.Strict, s.Recurring, path, opts.VC)
		built++
		if o.Trace != nil {
			o.Trace.Event("view.proposed", fmt.Sprintf("sig=%s path=%s", s.Strict.Short(), path))
		}
		res.Proposed = append(res.Proposed, ProposedView{Strict: s.Strict, Recurring: s.Recurring, Path: path})
		return &plan.Spool{Child: n, StrictSig: string(s.Strict), Path: path, VC: opts.VC}
	}
	return rec(root, len(subs)-1)
}

// estimateWithHistory folds compile-time estimates bottom-up but overrides
// any node whose recurring signature has runtime history — the paper's
// statistics feedback ("feed more accurate statistics from the previously
// materialized subexpressions to the rest of the query plan").
func (o *Optimizer) estimateWithHistory(root plan.Node, subs []signature.Subexpr) map[plan.Node]stats.Estimate {
	memo := make(map[plan.Node]stats.Estimate, len(subs))
	if o.History == nil {
		subs = nil
	}
	next := 0 // subs is in this walk's order, less the Spools
	var rec func(n plan.Node) stats.Estimate
	rec = func(n plan.Node) stats.Estimate {
		var buf [2]plan.Node
		var ceBuf [2]stats.Estimate
		ce := ceBuf[:0]
		for _, c := range plan.Inputs(n, &buf) {
			ce = append(ce, rec(c))
		}
		est := o.Est.EstimateNode(n, ce)
		if next < len(subs) && subs[next].Node == n {
			if sum, found := o.History.LookupMeans(subs[next].Recurring); found && sum.Count > 0 {
				est = stats.Estimate{Rows: sum.AvgRows, Bytes: sum.AvgBytes}
			}
			next++
		}
		memo[n] = est
		return est
	}
	rec(root)
	return memo
}

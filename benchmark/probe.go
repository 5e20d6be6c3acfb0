package main

import (
	"fmt"
	"time"

	"cloudviews"
	"cloudviews/internal/core"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/explain"
	"cloudviews/internal/obs"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/storage"
	"cloudviews/internal/telemetry"
)

// prober times one layer at a time. After an op's real call has returned it
// calls each layer's exported entry point on the same job: reads go against
// the live engine's components, writes against instances the prober owns, so
// a traced pass leaves the live system as an untraced pass would. One prober
// serves one client.
type prober struct {
	eng *core.Engine
	log *spanLog
	// parent is the span the job-level probes hang under: the op itself, or
	// the RunDay span when an op is a whole day.
	parent string

	// Probe-owned write targets.
	cache *exec.Cache
	repo  *repository.Repo
	store *storage.Store
	tel   *telemetry.Collector
	clock time.Time

	// Counts taken at the probe boundaries.
	jobs       int
	subexprs   int
	candidates int // reuse decisions that named a candidate view
	matched    int
	skipped    int // exec probes skipped: the compile probe staged a view
	// recent keeps the last compiled plans for the single-threaded allocation
	// count of exec.Run.
	recent []compiled
}

type compiled struct {
	plan   plan.Node
	sigMap map[plan.Node]signature.Sig
	submit time.Time
}

const recentPlans = 128

func newProber(eng *core.Engine, log *spanLog) *prober {
	p := &prober{eng: eng, log: log, parent: rootSpan, repo: repository.New(), tel: telemetry.NewCollector(telemetry.Config{})}
	p.store = storage.NewStore(func() time.Time { return p.clock })
	p.newDay()
	return p
}

// newDay resets the probe's result cache, as the engine resets its own at
// each RunDay.
func (p *prober) newDay() { p.cache = exec.NewCache() }

// job probes every layer a submission passes through. trace is the op's ID.
func (p *prober) job(trace string, j cloudviews.Job) error {
	eng, log := p.eng, p.log
	id := "probe-" + trace
	p.jobs++

	var script *sqlparser.Script
	var err error
	log.timed(trace, "sqlparser.parse", p.parent, func() { script, err = sqlparser.Parse(j.Script) })
	if err != nil {
		return fmt.Errorf("probe %s: parse: %w", trace, err)
	}

	var outs []*plan.Output
	log.timed(trace, "plan.bind", p.parent, func() {
		outs, err = (&plan.Binder{Catalog: eng.Catalog, Params: j.Params}).BindScript(script)
	})
	if err != nil || len(outs) != 1 {
		return fmt.Errorf("probe %s: bind: %d outputs, %v", trace, len(outs), err)
	}
	root := plan.Node(outs[0])

	signer := &signature.Signer{EngineVersion: clusterName + "/" + j.Runtime}
	tag := signer.JobTag(root)
	log.timed(trace, "insights.fetch", "optimizer.compile", func() { eng.Insights.FetchAnnotations(tag) })

	tr := obs.NewTrace(id, j.Submit)
	rec := explain.NewRecorder(id, j.VC)
	var cr *optimizer.CompileResult
	log.timed(trace, "optimizer.compile", p.parent, func() {
		opt := &optimizer.Optimizer{
			Signer: signer, Est: eng.Est, History: eng.History, Store: eng.Store,
			Insights: eng.Insights, Guard: eng.Guard(), Trace: tr, Explain: rec,
		}
		cr = opt.Compile(root, optimizer.CompileOptions{JobID: id, Cluster: clusterName, VC: j.VC, OptIn: true})
	})
	for _, d := range rec.Decisions() {
		if d.Sig != "" {
			p.candidates++
		}
	}
	p.matched += len(cr.Matched)
	// A compile that found an annotated, unbuilt subexpression has staged a
	// view and taken its lock on the live system: undo both, and do not
	// execute a plan that would write the view.
	for _, v := range cr.Proposed {
		eng.Store.Abandon(v.Strict)
		eng.Insights.ReleaseViewLock(v.Strict, id)
	}

	// What the engine signs after compiling: the result-cache keys and the
	// repository's subexpression rows.
	var sigMap map[plan.Node]signature.Sig
	var subs []signature.Subexpr
	log.timed(trace, "signature.sign", p.parent, func() {
		sigMap = signer.Physical(cr.Plan)
		subs = signer.Subexpressions(cr.Plan)
	})
	p.subexprs += len(subs)

	var out *data.Table
	if len(cr.Proposed) > 0 {
		p.skipped++
	} else {
		var res *exec.RunResult
		log.timed(trace, "exec.run", p.parent, func() { res, err = p.run(trace, cr.Plan, sigMap, j.Submit) })
		if err != nil {
			return fmt.Errorf("probe %s: exec: %w", trace, err)
		}
		out = res.Table
		if len(p.recent) < recentPlans {
			p.recent = append(p.recent, compiled{cr.Plan, sigMap, j.Submit})
		} else {
			p.recent[p.jobs%recentPlans] = compiled{cr.Plan, sigMap, j.Submit}
		}
	}

	record := probeRecord(j, cr, subs)
	log.timed(trace, "repository.add", p.parent, func() { p.repo.Add(record) })

	if out != nil {
		// One view's life in a store of the probe's own: stage, write, seal.
		sig := signature.Sig(id)
		p.clock = j.Submit
		log.timed(trace, "storage.write", p.parent, func() {
			path := p.store.PathFor(j.VC, sig)
			p.store.Stage(sig, record.Template, path, j.VC)
			err = p.store.Materialize(sig, path, j.VC, out, 1)
			p.store.SealAt(sig, j.Submit)
		})
		p.store.Purge(sig)
		if err != nil {
			return fmt.Errorf("probe %s: materialize: %w", trace, err)
		}
	}

	day := int(j.Submit.Sub(cloudviews.Epoch) / (24 * time.Hour))
	log.timed(trace, "telemetry.observe", p.parent, func() {
		p.tel.ObserveJob(day, j.VC, tr)
		p.tel.ObserveDecisions(day, j.VC, rec)
	})
	return nil
}

// run executes a compiled plan as the engine does, against the live catalog
// and view store (both only read: the plan holds no Spool) and the probe's
// own result cache. With a trace ID, view reads become spans inside exec.run.
func (p *prober) run(trace string, root plan.Node, sigMap map[plan.Node]signature.Sig, submit time.Time) (*exec.RunResult, error) {
	ex := &exec.Executor{
		Catalog: p.eng.Catalog, Views: timedViews{p, trace}, Cache: p.cache, SigMap: sigMap,
		Vectorized: true,
		Ctx:        &plan.EvalContext{NowNanos: submit.UnixNano(), Rand: data.NewRand(uint64(submit.UnixNano()))},
	}
	return ex.Run(root)
}

// timedViews is the view store an exec probe reads through.
type timedViews struct {
	p     *prober
	trace string
}

func (v timedViews) Fetch(strict signature.Sig) (t *data.Table, mult float64, ok bool) {
	if v.trace == "" {
		return v.p.eng.Store.Fetch(strict)
	}
	v.p.log.timed(v.trace, "storage.fetch", "exec.run", func() { t, mult, ok = v.p.eng.Store.Fetch(strict) })
	return t, mult, ok
}

// Materialize is never reached: a compile probe that proposes a view skips
// its exec probe, so no probed plan holds a Spool.
func (v timedViews) Materialize(strict signature.Sig, _, _ string, _ *data.Table, _ float64) error {
	return fmt.Errorf("probe tried to materialize view %s on the live store", strict.Short())
}

// probeRecord builds the repository row of a probed job from its compile
// product, with the fields Repo.Add indexes.
func probeRecord(j cloudviews.Job, cr *optimizer.CompileResult, subs []signature.Subexpr) *repository.JobRecord {
	rec := &repository.JobRecord{
		JobID: "probe-" + j.ID, Cluster: clusterName, VC: j.VC, Pipeline: j.Pipeline, User: j.User,
		Runtime: j.Runtime, Submit: j.Submit, Start: j.Submit, End: j.Submit,
		Template: subs[len(subs)-1].Recurring, Tag: cr.Tag,
		ViewsBuilt: len(cr.Proposed), ViewsReused: len(cr.Matched),
		Subexprs: make([]repository.SubexprRecord, 0, len(subs)),
	}
	for _, s := range subs {
		rec.Subexprs = append(rec.Subexprs, repository.SubexprRecord{
			JobID: rec.JobID, Strict: s.Strict, Recurring: s.Recurring, Op: s.Op,
			Height: s.Height, NodeCount: s.NodeCount, Eligible: s.Eligibility,
			InputDatasets: s.InputDatasets, Parent: s.Parent,
		})
	}
	return rec
}

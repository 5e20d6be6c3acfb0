// Package core wires the substrates into the CloudViews system: the engine
// that compiles, executes, and schedules jobs with reuse applied; the daily
// feedback loop (telemetry → workload analysis → view selection → annotation
// publishing → future compilations); and the metric collection behind the
// production-impact evaluation.
package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/explain"
	"cloudviews/internal/fault"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/guard"
	"cloudviews/internal/insights"
	"cloudviews/internal/obs"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/stats"
	"cloudviews/internal/storage"
	"cloudviews/internal/telemetry"
	"cloudviews/internal/workload"
)

// Config assembles an Engine.
type Config struct {
	ClusterName string
	Catalog     *catalog.Catalog
	ClusterCfg  cluster.Config
	// Selection tunes the feedback loop's view selection.
	Selection analysis.SelectionConfig
	// Faults configures deterministic fault injection across the pipeline
	// (cluster stages, spool writes, view reads, whole-job crashes). The
	// zero value disables injection entirely at zero cost.
	Faults fault.Config
	// SLORules is the telemetry watchdog's rule list (nil =
	// telemetry.DefaultRules(): hit-rate regression, queue growth, fault and
	// miss-reason spikes, silent on healthy fault-free runs).
	SLORules []telemetry.Rule
	// Guard configures the runtime guardrail subsystem (per-signature
	// circuit breakers, per-VC kill switch). The zero value disables it
	// entirely at zero cost.
	Guard guard.Config
	// StorageEngine plugs in an alternative view-store backend (e.g. the
	// file-backed durable engine). Nil keeps the default in-memory store.
	// The engine's simulated clock is installed into it.
	StorageEngine storage.Engine
	// PlanCacheSize bounds the plan cache (one template per normalized
	// script): 0 = DefaultPlanCacheSize, negative = disabled.
	PlanCacheSize int
	// DisableObservability turns off per-job traces, the metrics registry,
	// AND the telemetry collector (benchmark baseline; production keeps
	// them on).
	DisableObservability bool
}

// Engine is one cluster's query-processing system with CloudViews installed.
type Engine struct {
	ClusterName string
	Catalog     *catalog.Catalog
	Repo        *repository.Repo
	History     *stats.History
	Store       storage.Engine
	Insights    *insights.Service
	Est         *stats.Estimator
	Sim         *cluster.Simulator
	Selection   analysis.SelectionConfig
	// Metrics is the system-wide registry every substrate reports into
	// (nil when Config.DisableObservability is set; all consumers no-op).
	Metrics *obs.Registry
	// Telemetry is the feedback-loop health pipeline: per-job critical-path
	// attribution, day-cadence series sampled from Metrics and the
	// substrates, and SLO watchdog alerts (nil when observability is
	// disabled; every method no-ops on nil).
	Telemetry *telemetry.Collector

	// rowLoops runs every job on the executor's row-at-a-time reference
	// loops instead of the batch kernels. Nothing sets it outside this
	// package's tests, which hold both arms to the same guarantees.
	rowLoops bool

	// cached job counters (nil-safe when observability is disabled).
	mJobs       *obs.Counter
	mJobsFailed *obs.Counter
	mBuilt      *obs.Counter
	mReused     *obs.Counter
	mCompileSec *obs.Counter

	// mu guards the signer registry and the result-cache pointer (which
	// RunDay swaps at day boundaries). The cache itself is internally
	// synchronized; only the pointer needs the lock.
	mu      sync.Mutex
	signers map[string]*signature.Signer
	cache   *exec.Cache

	// plans caches, by normalized script, the job-independent half of its
	// compile, so recurring submissions skip parse, bind, normalization and
	// enumeration whatever the catalog and their parameters did meanwhile.
	// Nil when disabled.
	plans *planCache

	// clockMu guards the simulated clock, the one clock of the system:
	// submissions only advance it (never rewind), so concurrent submissions
	// observe a monotonic clock regardless of completion order.
	clockMu sync.RWMutex
	clock   time.Time

	rng *data.Rand

	// guard is nil unless Config.Guard is enabled; every method no-ops on
	// nil, so the guard-free hot path costs one pointer check.
	guard *guard.Guard

	// faults is nil unless Config.Faults enables at least one point.
	faults *fault.Injector
}

// NewEngine builds an engine over the given catalog.
func NewEngine(cfg Config) *Engine {
	e := &Engine{
		ClusterName: cfg.ClusterName,
		Catalog:     cfg.Catalog,
		Repo:        repository.New(),
		History:     stats.NewHistory(),
		Insights:    insights.NewService(),
		Est:         stats.NewEstimator(),
		Sim:         cluster.New(cfg.ClusterCfg),
		Selection:   cfg.Selection,
		signers:     make(map[string]*signature.Signer),
		clock:       fixtures.Epoch,
		cache:       exec.NewCache(),
		plans:       newPlanCache(cfg.PlanCacheSize),
		rng:         data.NewRand(99),
		guard:       guard.New(cfg.Guard),
		faults:      fault.New(cfg.Faults),
	}
	e.Sim.SetFaults(e.faults)
	if cfg.StorageEngine != nil {
		e.Store = cfg.StorageEngine
		e.Store.SetNow(e.Clock)
	} else {
		e.Store = storage.NewStore(e.Clock)
	}
	e.Insights.SetClusterEnabled(cfg.ClusterName, true)
	if !cfg.DisableObservability {
		e.Metrics = obs.NewRegistry()
		e.Store.SetMetrics(e.Metrics)
		e.Insights.SetMetrics(e.Metrics)
		e.Sim.SetMetrics(e.Metrics)
		e.mJobs = e.Metrics.Counter("cloudviews_jobs_total")
		e.mJobsFailed = e.Metrics.Counter("cloudviews_jobs_failed_total")
		e.mBuilt = e.Metrics.Counter("cloudviews_views_built_total")
		e.mReused = e.Metrics.Counter("cloudviews_views_reused_total")
		e.mCompileSec = e.Metrics.Counter("cloudviews_compile_seconds_total")
		e.faults.SetMetrics(e.Metrics)
		e.guard.SetMetrics(e.Metrics)
		e.cache.SetMetrics(e.Metrics)
		e.plans.setMetrics(e.Metrics)
		e.Telemetry = telemetry.NewCollector(telemetry.Config{Rules: cfg.SLORules})
	}
	return e
}

// dayIndex floors a simulated instant to its day index relative to the
// simulation epoch (negative before the epoch).
func dayIndex(t time.Time) int {
	d := t.Sub(fixtures.Epoch)
	day := int(d / (24 * time.Hour))
	if d < 0 && d%(24*time.Hour) != 0 {
		day--
	}
	return day
}

// Clock returns the engine's simulated time. Safe for concurrent use.
func (e *Engine) Clock() time.Time {
	e.clockMu.RLock()
	defer e.clockMu.RUnlock()
	return e.clock
}

// SetClock sets the simulated time unconditionally (tests and day
// boundaries may rewind it). Safe for concurrent use, but racing it
// against submissions gives whichever write lands last.
func (e *Engine) SetClock(t time.Time) {
	e.clockMu.Lock()
	e.clock = t
	e.clockMu.Unlock()
}

// AdvanceClock moves the simulated time forward by d. The read and the write
// happen under one lock, so concurrent advances each land.
func (e *Engine) AdvanceClock(d time.Duration) {
	e.clockMu.Lock()
	e.clock = e.clock.Add(d)
	e.clockMu.Unlock()
}

// advanceClock moves the simulated time forward to t if t is later than the
// current clock. Concurrent submissions arrive in arbitrary order, so the
// clock must never move backwards mid-flight (views would "un-seal").
func (e *Engine) advanceClock(t time.Time) {
	e.clockMu.Lock()
	if t.After(e.clock) {
		e.clock = t
	}
	e.clockMu.Unlock()
}

// Guard returns the runtime guardrail subsystem (nil when disabled; all
// guard methods no-op on nil).
func (e *Engine) Guard() *guard.Guard { return e.guard }

// OnboardVC enables CloudViews for a virtual cluster (the opt-in/opt-out
// unit).
func (e *Engine) OnboardVC(vc string) { e.Insights.SetVCEnabled(vc, true) }

// OffboardVC disables a VC and purges its views.
func (e *Engine) OffboardVC(vc string) {
	e.Insights.SetVCEnabled(vc, false)
	e.Store.PurgeVC(vc)
}

// signerFor returns the signer for a SCOPE runtime version. Different runtime
// versions produce incompatible signatures (§4, "Impact of changed
// signatures").
func (e *Engine) signerFor(runtime string) *signature.Signer {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.signers[runtime]
	if !ok {
		s = &signature.Signer{EngineVersion: e.ClusterName + "/" + runtime}
		e.signers[runtime] = s
	}
	return s
}

// resultCache returns the current shared result cache (RunDay swaps it at
// day boundaries).
func (e *Engine) resultCache() *exec.Cache {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache
}

// resetCache installs a fresh result cache and returns it.
func (e *Engine) resetCache() *exec.Cache {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cache = exec.NewCache()
	e.cache.SetMetrics(e.Metrics)
	return e.cache
}

// PlanCacheStats returns how many submissions skipped compilation (hits) and
// how many compiled (misses), counted while the plan cache is enabled. Every
// job compiles against the controls, annotations, view store and history of
// its own submit time, so hits is always 0; the method keeps its shape for the
// standing benchmark, which weights its compile probe by 1 − hits/(hits+misses).
func (e *Engine) PlanCacheStats() (hits, misses uint64) { return e.plans.stats() }

// JobRun is the result of the data-plane half of a job: compiled plan,
// executed tables, and the stage specs awaiting cluster scheduling.
type JobRun struct {
	Input   workload.JobInput
	Compile *optimizer.CompileResult
	Exec    *exec.RunResult
	Stages  []cluster.StageSpec
	// Record is the row the job left in the workload repository, as it was
	// added: read-only, and without the scheduling outcome (RunDay files that
	// on the repository's successor record, not here).
	Record *repository.JobRecord
	// Trace is the job's observability record (nil when disabled).
	Trace *obs.Trace
	// Explain holds the job's structured reuse decisions (nil when
	// observability is disabled).
	Explain *explain.Recorder
	// Attempts is how many times the job ran (1 without faults); RetryDelay
	// is the simulated time lost to failed attempts (recompiles + backoff),
	// charged onto the cluster schedule as extra pre-start latency.
	Attempts   int
	RetryDelay time.Duration
}

// prepare is the job-independent half of the compile. A script the plan cache
// knows is neither parsed nor bound: an instance built at this generation
// with these parameter values serves as it stands, failing that the template
// is carried over to the catalog's current versions and the job's values.
// Whichever it is, the result is shared and read-only.
func (e *Engine) prepare(in workload.JobInput, opt *optimizer.Optimizer) (*optimizer.Prepared, error) {
	gen := e.Catalog.Generation()
	buf := planKeys.Get().(*[]byte)
	defer putKeyBuf(buf)
	key, keyOK := e.plans.appendKey((*buf)[:0], in)
	*buf = key
	if keyOK {
		template, prep := e.plans.lookup(key, gen, in.Params)
		if prep != nil {
			e.plans.hit.Inc()
			return prep, nil
		}
		if template != nil {
			if prep = opt.Derive(template, e.Catalog, in.Params); prep != nil {
				e.plans.derive.Inc()
				return e.plans.store(key, gen, in.Params, prep), nil
			}
		}
		e.plans.cold.Inc()
	}
	// A new script, or one Derive declines: the front end runs, and reports
	// what it finds wrong.
	script, err := sqlparser.Parse(in.Script)
	if err != nil {
		return nil, fmt.Errorf("job %s: parse: %w", in.ID, err)
	}
	binder := &plan.Binder{Catalog: e.Catalog, Params: in.Params}
	outs, err := binder.BindScript(script)
	if err != nil {
		return nil, fmt.Errorf("job %s: bind: %w", in.ID, err)
	}
	if len(outs) != 1 {
		return nil, fmt.Errorf("job %s: expected exactly one OUTPUT, got %d", in.ID, len(outs))
	}
	prep := opt.Prepare(outs[0])
	if keyOK {
		prep = e.plans.store(key, gen, in.Params, prep)
	}
	return prep, nil
}

// CompileAndExecute runs the data plane for one job: parse → bind → optimize
// (with reuse) → execute → publish cooked outputs → stage views for sealing.
func (e *Engine) CompileAndExecute(in workload.JobInput) (*JobRun, error) {
	e.advanceClock(in.Submit)
	signer := e.signerFor(in.Runtime)

	// Trace in simulated time from the job's own submit instant; nil when
	// observability is off (every recording method no-ops on nil). The
	// explain recorder shares the trace's lifecycle: observability off means
	// zero explain cost (nil recorder, every Record a single branch).
	var tr *obs.Trace
	var rec *explain.Recorder
	if e.Metrics != nil {
		tr = obs.NewTrace(in.ID, in.Submit)
		rec = explain.NewRecorder(in.ID, in.VC)
	}
	e.mJobs.Inc()

	opt := &optimizer.Optimizer{
		Signer:   signer,
		Est:      e.Est,
		History:  e.History,
		Store:    e.Store,
		Insights: e.Insights,
		Guard:    e.guard,
		Trace:    tr,
		Explain:  rec,
	}

	prep, err := e.prepare(in, opt)
	if err != nil {
		e.mJobsFailed.Inc()
		return nil, err
	}
	// The front-end phases leave the same trace whether they ran or not.
	tr.Span("parse", 0)
	tr.Span("bind", 0)

	// Job-level retry loop: an injected job crash (container/job-manager
	// loss) abandons everything the attempt staged, waits out the backoff in
	// simulated time, and RECOMPILES — so a retried producer whose target
	// view sealed meanwhile (built by a concurrent job) comes back as a
	// consumer. The final attempt is never crashed: injection alone can
	// never fail a job permanently.
	maxAttempts := 1
	if e.faults.Enabled(fault.JobFail) {
		maxAttempts = fault.DefaultMaxJobAttempts
	}
	var cr *optimizer.CompileResult
	var res *exec.RunResult
	var retryDelay time.Duration
	attempt := 1
	for {
		if e.plans != nil {
			// A script that parsed also lexes, so the cache could key it.
			e.plans.compiles.Add(1)
		}
		// The job-dependent half reads the controls, annotations, view store
		// and runtime history as they stand now, so every attempt runs it.
		cr = opt.CompilePrepared(prep, optimizer.CompileOptions{
			JobID:   in.ID,
			Cluster: in.Cluster,
			VC:      in.VC,
			OptIn:   in.OptIn,
		})
		e.mCompileSec.Add(cr.CompileLatency.Seconds())

		// The attempt is part of the fault-injection key so a retried job
		// re-rolls its spool/read faults instead of replaying them.
		attemptID := in.ID + "/a" + strconv.Itoa(attempt)
		ex := &exec.Executor{
			Catalog: e.Catalog,
			Views:   e.Store,
			Cache:   e.resultCache(),
			// The result-cache keys, signed with cr.Subs (Signer.Sign):
			// strict signatures, except on or above a ViewScan (a plan that
			// reuses a view must not replay the accounting of the plan that
			// computed the subexpression) and none on or above a Spool.
			SigMap: cr.Physical,
			// Runtime history sizes each aggregate's group table (the
			// statistics feedback reaches the executor, not only the
			// optimizer's estimates); each join runs the picked algorithm.
			Compiled: cr,
			// The vectorized batch path is the production default; its
			// results and accounting are byte-identical to the row-at-a-time
			// serial twin (enforced by the exec equivalence tests).
			Vectorized: !e.rowLoops,
			Metrics:    e.Metrics,
			Faults:     e.faults,
			JobID:      attemptID,
			Trace:      tr,
			// NowNanos comes from the job's own submit time, not the shared
			// clock: a job's answer must not depend on which other jobs were
			// in flight when it ran.
			Ctx: &plan.EvalContext{
				NowNanos: in.Submit.UnixNano(),
				Rand:     e.rng.Fork(data.FNV64a(data.FNVOffset, in.ID)),
			},
		}
		var err error
		res, err = ex.Run(cr.Plan)
		if err != nil {
			e.failJob(cr, in.ID, tr)
			return nil, fmt.Errorf("job %s: exec: %w", in.ID, err)
		}

		if attempt < maxAttempts &&
			e.faults.Should(fault.JobFail, attemptID) {
			// The attempt's staged views are torn down and its locks released
			// exactly as on a permanent failure — but the failed-jobs counter
			// stays untouched (the job is not done yet).
			e.releaseStaged(cr, in.ID, tr, "job-retry")
			backoff := fault.Backoff(attempt)
			retryDelay += cr.CompileLatency + backoff
			// The event value is the simulated seconds this retry costs
			// (recompile + backoff) — the telemetry analyzer's "time lost to
			// fault recovery" input.
			if tr != nil {
				tr.EventV("job.retry", fmt.Sprintf("attempt=%d backoff=%s", attempt, backoff),
					(cr.CompileLatency + backoff).Seconds())
			}
			// The retry recompiles at the post-backoff instant: views sealed
			// in the meantime become visible to it. Its decisions supersede
			// the failed attempt's, exactly as its compile result does.
			e.advanceClock(in.Submit.Add(retryDelay))
			rec.Reset()
			attempt++
			continue
		}
		break
	}

	// Data cooking: OUTPUT to "dataset:<name>" publishes a new version of a
	// shared dataset — derived data created as part of query processing.
	if out, ok := cr.Plan.(*plan.Output); ok && strings.HasPrefix(out.Target, "dataset:") {
		name := strings.TrimPrefix(out.Target, "dataset:")
		if _, err := e.Catalog.BulkUpdate(name, in.Submit, res.Table); err != nil {
			e.failJob(cr, in.ID, tr)
			return nil, fmt.Errorf("job %s: publishing cooked dataset: %w", in.ID, err)
		}
	}

	run := &JobRun{
		Input: in, Compile: cr, Exec: res, Trace: tr,
		Explain: rec, Attempts: attempt, RetryDelay: retryDelay,
	}
	run.Stages = stageSpecs(cr, res)
	e.traceStages(tr, run.Stages)
	// The record lands in the repository immediately so workload analysis
	// sees it, and is the repository's from here on: nothing writes to it
	// again. RunDay files the scheduling outcome through SetOutcome.
	run.Record = e.buildRecord(in, cr, res)
	e.Repo.Add(run.Record)

	// Early sealing: the view becomes readable when the producing stage
	// finishes, which we approximate as a fraction of the job's estimated
	// runtime after submission (plus any time lost to job retries).
	if len(cr.Proposed) > 0 {
		sealAt := in.Submit.Add(retryDelay + e.estimateSealDelay(run))
		tr.SpanAt("seal", in.Submit, sealAt.Sub(in.Submit))
		for _, p := range cr.Proposed {
			if !e.Store.SealAt(p.Strict, sealAt) {
				// The artifact vanished between materialize and seal (e.g.
				// abandoned or expired under an aggressive TTL): drop any
				// half-built state rather than leave the signature wedged.
				e.Store.Abandon(p.Strict)
				if tr != nil {
					tr.Event("view.abandoned", "sig="+p.Strict.Short()+" reason=seal-failed")
				}
			}
			e.Insights.ReleaseViewLock(p.Strict, in.ID)
		}
	}
	e.mBuilt.Add(float64(len(cr.Proposed)))
	e.mReused.Add(float64(len(cr.Matched)))

	// Runtime fallbacks complete the decision trail: a view matched at
	// compile time whose read failed forfeits its promised saving. The
	// outcome correlation is shared with the guard below (same index order
	// as cr.Matched).
	outs := viewOutcomes(cr, res)
	if rec != nil {
		for i, o := range outs {
			if o.FellBack {
				m := cr.Matched[i]
				rec.Record(m.Strict, m.ReplacedOp, explain.ReasonFallback, m.Saved, "")
			}
		}
	}

	// Fold the job's critical-path attribution into the day/VC telemetry
	// aggregates. The cluster queue overlay lands later (RunDay charges it
	// via AddQueueWait), so this covers exactly the data-plane timeline.
	e.Telemetry.ObserveJob(dayIndex(in.Submit), in.VC, tr)
	e.Telemetry.ObserveDecisions(dayIndex(in.Submit), in.VC, rec)

	// Feed the guard the job's realized view outcomes: each matched view
	// either banked its promised saving or forfeited it to a read fallback
	// (the executor lists fallbacks by strict signature).
	if e.guard != nil {
		e.guard.ObserveJob(dayIndex(in.Submit), in.VC, in.ID, outs)
	}

	return run, nil
}

// viewOutcomes correlates the final attempt's matched views with the strict
// signatures the executor fell back on.
func viewOutcomes(cr *optimizer.CompileResult, res *exec.RunResult) []guard.ViewOutcome {
	if len(cr.Matched) == 0 {
		return nil
	}
	var fell map[signature.Sig]int
	if len(res.FallbackSigs) > 0 {
		fell = make(map[signature.Sig]int, len(res.FallbackSigs))
		for _, s := range res.FallbackSigs {
			fell[s]++
		}
	}
	out := make([]guard.ViewOutcome, 0, len(cr.Matched))
	for _, m := range cr.Matched {
		o := guard.ViewOutcome{Recurring: m.Recurring, SavedSec: m.Saved}
		if fell[m.Strict] > 0 {
			fell[m.Strict]--
			o.FellBack = true
		}
		out = append(out, o)
	}
	return out
}

// failJob settles a job that errored after compilation: any views it staged
// (and the creation locks it holds) must be released so the next job touching
// those signatures can build them — otherwise a single failed job orphans its
// views for the rest of the run.
func (e *Engine) failJob(cr *optimizer.CompileResult, jobID string, tr *obs.Trace) {
	e.mJobsFailed.Inc()
	e.releaseStaged(cr, jobID, tr, "job-failed")
}

// releaseStaged abandons EVERY view a compilation staged and releases every
// creation lock it holds. It runs on all failure paths — permanent failure
// and injected retry alike — so no signature is left wedged regardless of how
// many views one job was building.
func (e *Engine) releaseStaged(cr *optimizer.CompileResult, jobID string, tr *obs.Trace, reason string) {
	for _, p := range cr.Proposed {
		e.Store.Abandon(p.Strict)
		e.Insights.ReleaseViewLock(p.Strict, jobID)
		if tr != nil {
			tr.Event("view.abandoned", "sig="+p.Strict.Short()+" reason="+reason)
		}
	}
}

// stageSpanNames interns the "execute:stage-NN" / "materialize:stage-NN"
// span names for the stage indexes every plan actually has, so tracing a
// submission doesn't format strings per stage.
var stageSpanNames = func() (tab [2][32]string) {
	for i := range tab[0] {
		tab[0][i] = fmt.Sprintf("execute:stage-%02d", i)
		tab[1][i] = fmt.Sprintf("materialize:stage-%02d", i)
	}
	return
}()

func stageSpanName(i int, spool bool) string {
	kind := 0
	if spool {
		kind = 1
	}
	if i < len(stageSpanNames[kind]) {
		return stageSpanNames[kind][i]
	}
	if spool {
		return fmt.Sprintf("materialize:stage-%02d", i)
	}
	return fmt.Sprintf("execute:stage-%02d", i)
}

// traceStages appends one execute span per scheduled stage, in simulated
// time: the stage's container-seconds of work collapsed onto the trace
// cursor. Spool stages are labeled materialize.
func (e *Engine) traceStages(tr *obs.Trace, stages []cluster.StageSpec) {
	if tr == nil {
		return
	}
	// Data-plane path: the job starts immediately. RunDay overlays the real
	// cluster queue wait as a separate "queue:cluster" span.
	tr.Span("queue", 0)
	for i, st := range stages {
		tr.Span(stageSpanName(i, st.IsSpool), time.Duration(st.Work*float64(time.Second)))
	}
}

// estimateSealDelay approximates when the spooled subexpression's stage
// completes: total work divided by the job's token allocation, scaled down
// because the spool point is typically in the lower half of the DAG.
func (e *Engine) estimateSealDelay(run *JobRun) time.Duration {
	tokens := 1
	for _, st := range run.Stages {
		if st.Width > tokens {
			tokens = st.Width
		}
	}
	if tokens > 50 {
		tokens = 50
	}
	sec := run.Exec.TotalWork / float64(tokens) * 0.6
	return run.Compile.CompileLatency + time.Duration(sec*float64(time.Second))
}

// stageSpecs lowers the physical plan to the stage DAG the cluster schedules
// (widths, deps, spool flags) and distributes the execution's measured work
// across the stages in proportion to their estimated work, so executions
// served from the result cache still yield a faithful schedule.
func stageSpecs(cr *optimizer.CompileResult, res *exec.RunResult) []cluster.StageSpec {
	stages := optimizer.BuildStages(cr.Plan, cr.Estimates)
	specs := make([]cluster.StageSpec, len(stages))
	var totalWeight float64
	spoolStages := 0
	for i, st := range stages {
		specs[i] = cluster.StageSpec{Width: st.Width, Deps: st.Deps, IsSpool: st.IsSpool}
		if st.IsSpool {
			spoolStages++
			continue
		}
		// Work holds the stage's estimated weight until the total is known.
		specs[i].Work = estimatedOpWork(st.Op, cr.Estimates[st.Node])
		totalWeight += specs[i].Work
	}
	nonSpoolWork := res.TotalWork - res.SpoolWork
	for i := range specs {
		if specs[i].IsSpool {
			specs[i].Work = res.SpoolWork / float64(spoolStages)
		} else if totalWeight > 0 {
			specs[i].Work = nonSpoolWork * specs[i].Work / totalWeight
		} else {
			specs[i].Work = nonSpoolWork / float64(len(specs))
		}
	}
	return specs
}

// opWorkPerRow mirrors the executor's per-row cost model over estimates, used
// only for proportional work splitting.
var opWorkPerRow = map[string]float64{
	"Scan": 2.0e-6, "ViewScan": 2.0e-6, "Filter": 1.0e-6, "Project": 1.5e-6,
	"Join": 4.0e-6, "Aggregate": 3.0e-6, "Union": 0.2e-6, "UDO": 8.0e-6,
	"Sample": 0.8e-6, "Sort": 2.0e-6, "Output": 0.5e-6,
}

func estimatedOpWork(op string, est stats.Estimate) float64 {
	perRow := opWorkPerRow[op]
	if perRow == 0 {
		perRow = 1.0e-6
	}
	return est.Rows*perRow + est.Bytes*2.0e-9 + 1e-9
}

// buildRecord assembles the repository row for a job — Start and End read
// Submit and the cluster outcome fields zero until RunDay's SetOutcome — and
// feeds the runtime history. The row's InputDatasets are the plan-cache
// entry's slices, shared, never copied. The Work
// recorded per subexpression is its SUBTREE cost — what reusing it would save
// — and subtrees that were themselves served from a view are excluded from
// history so reuse never poisons the recompute-cost estimates.
func (e *Engine) buildRecord(in workload.JobInput, cr *optimizer.CompileResult, res *exec.RunResult) *repository.JobRecord {
	subs := cr.Subs
	statByNode := make(map[plan.Node]exec.NodeStat, len(res.Stats))
	for _, st := range res.Stats {
		statByNode[st.Node] = st
	}
	// Fold per-operator work into per-subtree work (post-order, so children
	// precede parents) and mark subtrees containing a ViewScan.
	subtreeWork := make([]float64, len(subs))
	hasView := make([]bool, len(subs))
	for i, s := range subs {
		if st, ok := statByNode[s.Node]; ok {
			subtreeWork[i] += st.Work
		}
		if s.Op == "ViewScan" {
			hasView[i] = true
		}
		if p := s.Parent; p >= 0 {
			subtreeWork[p] += subtreeWork[i]
			if hasView[i] {
				hasView[p] = true
			}
		}
	}
	rec := &repository.JobRecord{
		Subexprs:    make([]repository.SubexprRecord, 0, len(subs)),
		JobID:       in.ID,
		Cluster:     in.Cluster,
		VC:          in.VC,
		Pipeline:    in.Pipeline,
		User:        in.User,
		Runtime:     in.Runtime,
		Submit:      in.Submit,
		Start:       in.Submit,
		End:         in.Submit,
		Template:    subs[len(subs)-1].Recurring,
		Tag:         cr.Tag,
		ViewsBuilt:  len(cr.Proposed),
		ViewsReused: len(cr.Matched),
	}
	for i, s := range subs {
		sr := repository.SubexprRecord{
			JobID:         in.ID,
			Strict:        s.Strict,
			Recurring:     s.Recurring,
			Op:            s.Op,
			Height:        s.Height,
			NodeCount:     s.NodeCount,
			Eligible:      s.Eligibility,
			InputDatasets: s.InputDatasets,
			Parent:        s.Parent,
			Work:          subtreeWork[i],
		}
		if st, ok := statByNode[s.Node]; ok {
			sr.Rows, sr.Bytes = st.RowsOut, st.BytesOut
			if s.Op == "Join" {
				sr.JoinAlgo = st.Algo.String()
			}
		} else if j, isJoin := s.Node.(*plan.Join); isJoin {
			// Cache-replayed joins still report their chosen algorithm.
			sr.JoinAlgo = cr.JoinAlgo(j).String()
		}
		rec.Subexprs = append(rec.Subexprs, sr)

		// Runtime history: only genuine recomputations count.
		if !hasView[i] && subtreeWork[i] > 0 && s.Op != "Output" && s.Op != "Spool" {
			e.History.Record(s.Recurring, stats.Observation{
				Rows:  sr.Rows,
				Bytes: sr.Bytes,
				Work:  subtreeWork[i],
			})
		}
	}
	return rec
}

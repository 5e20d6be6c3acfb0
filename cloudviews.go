// Package cloudviews is a from-scratch reproduction of CloudViews, the
// automatic computation-reuse infrastructure for the SCOPE query engine on
// Microsoft's Cosmos platform ("Production Experiences from Computation Reuse
// at Microsoft", EDBT 2021).
//
// The package exposes a complete, embeddable system: a SCOPE-like declarative
// engine (parser, binder, memo-style optimizer, executing operators), the
// CloudViews feedback loop (signatures → workload repository → view selection
// → insights service → online materialization → reuse), and a discrete-event
// cluster simulator that reports the paper's production metrics (latency,
// processing time, bonus time, containers, IO, queue lengths).
//
// Quick start:
//
//	sys, err := cloudviews.NewSystem(cloudviews.Config{ClusterName: "demo"})
//	...
//	sys.DefineDataset("Sales", schema)
//	sys.PublishDataset("Sales", table)
//	sys.OnboardVC("vc1")
//	res, err := sys.SubmitScript(cloudviews.Job{
//		ID: "job-1", VC: "vc1",
//		Script: `r = SELECT Region, COUNT(*) AS n FROM Sales GROUP BY Region;
//		         OUTPUT r TO "out/r";`,
//	})
//
// Repeated submissions of overlapping scripts are detected by the analysis
// pass (System.Analyze) and transparently materialized and reused.
//
// # Concurrency
//
// A System is safe for concurrent use. SubmitScript may be called from any
// number of goroutines; the shared state behind it (catalog, workload
// repository, runtime statistics, materialized-view store, insights service)
// is internally synchronized. One job executes on the goroutine that
// submitted it — the executor starts none of its own — so cores are filled by
// concurrent jobs, and answers are byte-identical at every core count.
//
// For pipelined ingestion, SubmitScriptAsync enqueues a job and returns a
// Pending handle immediately; SubmitBatch submits a whole slice and waits
// for all of it:
//
//	pending, _ := sys.SubmitScriptAsync(cloudviews.Job{VC: "vc1", Script: src})
//	...
//	res, err := pending.Wait()
//
//	results, err := sys.SubmitBatch(jobs) // results[i] matches jobs[i]
//
// Ordering guarantees: jobs submitted asynchronously to the SAME virtual
// cluster execute one at a time in submission order (per-VC FIFO, matching
// the paper's per-VC job queues); jobs on different VCs run concurrently
// with no ordering between them. Results are deterministic regardless of
// interleaving — equal strict signatures imply identical result bytes, so
// view reuse can never change a job's output, only its cost. Call Close to
// stop the background workers when done with async submission.
//
// RunDay and Analyze are control-plane operations: they assume no concurrent
// submissions are in flight (drain async work first).
package cloudviews

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/core"
	"cloudviews/internal/data"
	"cloudviews/internal/explain"
	"cloudviews/internal/fault"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/guard"
	"cloudviews/internal/obs"
	"cloudviews/internal/plan"
	"cloudviews/internal/storage"
	"cloudviews/internal/telemetry"
	"cloudviews/internal/workload"
)

// Re-exported leaf types so callers can build schemas and rows without
// touching internal packages.
type (
	// Schema describes a dataset's columns.
	Schema = data.Schema
	// Column is one schema field.
	Column = data.Column
	// Row is one record.
	Row = data.Row
	// Table is an in-memory relation.
	Table = data.Table
	// Value is one scalar cell.
	Value = data.Value
	// SelectionConfig tunes the view-selection half of the feedback loop.
	SelectionConfig = analysis.SelectionConfig
	// VCConfig sizes one virtual cluster's guaranteed containers.
	VCConfig = cluster.VCConfig
	// DayMetrics aggregates one simulated day of cluster activity.
	DayMetrics = core.DayMetrics
	// Trace is a per-job execution timeline: timed spans (parse, bind,
	// insights, optimize, queue, execute, seal) plus lifecycle events
	// (annotations served, views proposed or abandoned, retries). Reuse
	// decisions are recorded once, in JobResult.Explain.
	Trace = obs.Trace
	// TraceSpan is one timed phase of a job trace.
	TraceSpan = obs.Span
	// TraceEvent is one lifecycle event recorded in a job trace.
	TraceEvent = obs.Event
	// MetricsRegistry collects system counters/gauges/histograms and exports
	// them in Prometheus text format.
	MetricsRegistry = obs.Registry
	// FaultConfig configures deterministic fault injection (seed, per-point
	// rates, an optional filter). The zero value disables injection entirely.
	FaultConfig = fault.Config
	// FaultPoint names one injection site (see ParseFaultSpec for the
	// accepted aliases).
	FaultPoint = fault.Point
	// SLOAlert is one deterministic watchdog finding, surfaced on
	// DayMetrics.Alerts and the telemetry snapshot.
	SLOAlert = telemetry.Alert
	// RunTelemetry is an immutable snapshot of the telemetry pipeline:
	// day-cadence series, per-day critical-path breakdowns, miss-reason
	// rollups, and the alert log. Feed it to a telemetry.Report for
	// rendering.
	RunTelemetry = telemetry.RunTelemetry
	// ExplainDecision is one structured reuse decision: why a candidate
	// view was (not) reused, with the container-seconds at stake. See
	// JobResult.Explain.
	ExplainDecision = explain.Decision
	// ExplainReason is the closed enum of reuse-decision reasons.
	ExplainReason = explain.Reason
	// ExplainOutcome classifies a decision one level coarser than its
	// reason (reused / rejected / disabled / fell-back).
	ExplainOutcome = explain.Outcome
	// ExplainRollup is the fleet-wide per-day/per-VC miss-reason rollup
	// built from a telemetry snapshot (telemetry.BuildExplainRollup).
	ExplainRollup = telemetry.ExplainRollup
	// StorageEngine is the pluggable view-store backend interface; see
	// Config.StorageEngine. The in-memory store and the file-backed durable
	// engine (internal/storage/durable) both implement it.
	StorageEngine = storage.Engine
	// GuardConfig configures the runtime guardrail subsystem (per-signature
	// circuit breakers, per-VC kill switch with staged re-enable). The zero
	// value disables it entirely.
	GuardConfig = guard.Config
	// Guard is the live guardrail subsystem, exposed for inspection and the
	// admin plane (nil when disabled; every method no-ops on nil).
	Guard = guard.Guard
	// GuardDecision is one deterministic guard state transition, surfaced on
	// DayMetrics.GuardDecisions and the guard decision log.
	GuardDecision = guard.Decision
)

// ParseFaultSpec parses a compact fault specification like
// "stage=0.1,read=0.05,seed=7" into a FaultConfig — the format the cvsim
// -faults flag accepts.
var ParseFaultSpec = fault.ParseSpec

// Column kinds, re-exported for schema construction.
const (
	KindInt    = data.KindInt
	KindFloat  = data.KindFloat
	KindString = data.KindString
	KindBool   = data.KindBool
	KindTime   = data.KindTime
)

// Value constructors, re-exported.
var (
	Int    = data.Int
	Float  = data.Float
	String = data.String_
	Bool   = data.Bool
	Time   = data.Time
	Null   = data.Null
)

// Epoch is the simulation start time (Feb 1, 2020 — day one of the paper's
// production window).
var Epoch = fixtures.Epoch

// Config assembles a System.
type Config struct {
	// ClusterName identifies the cluster (used in controls and signatures).
	ClusterName string
	// Capacity is the total cluster container count (default 1000).
	Capacity int
	// VCs configures guaranteed tokens per virtual cluster; unknown VCs get
	// a default allocation.
	VCs []VCConfig
	// Selection tunes view selection; the zero value is sensible
	// (greedy knapsack, schedule-unaware, no storage budget).
	Selection SelectionConfig
	// DisableObservability turns off per-job traces, explain decisions and
	// the metrics registry (on by default).
	DisableObservability bool
	// Faults configures deterministic fault injection across the reuse
	// pipeline (stage failures, bonus preemption, spool-write and view-read
	// failures, job-level failures). The zero value disables it with zero
	// overhead; faults are simulated-time only and never change job outputs.
	Faults FaultConfig
	// Guard configures the runtime guardrail subsystem: circuit breakers on
	// view reuse and a per-VC kill switch driven by watchdog verdicts. The
	// zero value disables it with zero overhead.
	Guard GuardConfig
	// StorageEngine plugs in an alternative view-store backend, such as the
	// file-backed crash-recoverable engine. Nil keeps the default in-memory
	// store (which preserves byte-identical goldens and simulated-time
	// determinism); durability is strictly opt-in.
	StorageEngine StorageEngine
	// PlanCacheSize bounds the plan cache, in templates keyed by runtime and
	// normalized script: recurring submissions skip parse and bind and share
	// the job-independent half of the compile; the rest runs per job. A full
	// cache evicts its least recently used template. 0 applies the default
	// (2,048 templates); negative disables the cache.
	// Results and traces are identical either way.
	PlanCacheSize int
}

// Job is one SCOPE-like script submission.
type Job struct {
	ID       string
	VC       string
	Pipeline string
	User     string
	// Runtime is the engine version tag; different runtimes never share
	// views (default "scope-r1").
	Runtime string
	Script  string
	Params  map[string]Value
	// Submit is the simulated submission time (default: the system clock).
	Submit time.Time
	// OptOut disables CloudViews for this single job.
	OptOut bool
}

// The closed reuse-decision reason enum, re-exported so embedders can match
// JobResult.Explain decisions without importing internal packages.
const (
	ReasonMatched         = explain.ReasonMatched
	ReasonNoAnnotation    = explain.ReasonNoAnnotation
	ReasonExpired         = explain.ReasonExpired
	ReasonLockHeld        = explain.ReasonLockHeld
	ReasonCost            = explain.ReasonCost
	ReasonGuardQuarantine = explain.ReasonGuardQuarantine
	ReasonVCKilled        = explain.ReasonVCKilled
	ReasonPolicyFlight    = explain.ReasonPolicyFlight
	ReasonBudget          = explain.ReasonBudget
	ReasonFallback        = explain.ReasonFallback
	ReasonNotMaterialized = explain.ReasonNotMaterialized
)

// ValidExplainReason reports whether r is a member of the closed reason enum.
func ValidExplainReason(r ExplainReason) bool { return explain.Valid(r) }

// JobResult reports one executed job.
type JobResult struct {
	ID string
	// Output is the job's result table. It is read-only: the same table (or
	// its rows) may be a dataset version, a stored view or a cached result
	// that other jobs are reading. Callers that want to sort or edit the
	// answer take Output.Clone() first.
	Output *Table
	// ViewsBuilt / ViewsReused count CloudViews activity in this job.
	ViewsBuilt  int
	ViewsReused int
	// Work is the total compute in container-seconds.
	Work float64
	// InputBytes / DataRead are logical IO totals.
	InputBytes int64
	DataRead   int64
	// Trace is the job's execution trace (nil when Config.
	// DisableObservability is set). Render() pretty-prints it.
	Trace *Trace

	// plan backs PlanText; the rendering is deferred because most callers
	// never read it and formatting a plan tree dominates the allocation
	// profile of small cached submissions.
	plan plan.Node
	// explain backs Explain (nil when observability is off). It and Trace
	// point into the job's one observability record.
	explain *explain.Recorder
}

// Explain returns the job's structured reuse decisions in decision order:
// one ExplainDecision per candidate view considered (plus whole-job
// decisions like policy-flight and runtime fallbacks), each carrying a
// reason from the closed enum. Returns nil when Config.DisableObservability
// is set, and an empty non-nil slice for an observed job that made no reuse
// decisions.
func (r *JobResult) Explain() []ExplainDecision {
	if r.explain == nil {
		return nil
	}
	ds := r.explain.Decisions()
	if ds == nil {
		ds = []ExplainDecision{}
	}
	return ds
}

// PlanText renders the final (post-reuse) plan. The text is produced on
// demand from the compiled plan tree (which is immutable after execution).
func (r *JobResult) PlanText() string {
	if r.plan == nil {
		return ""
	}
	return plan.Format(r.plan)
}

// System is a single-cluster CloudViews deployment. Safe for concurrent
// use; see the package documentation for the concurrency model.
type System struct {
	engine *core.Engine
	cfg    Config

	mu      sync.Mutex // guards seq, workers, closed
	seq     int
	workers map[string]*vcWorker
	closed  bool
}

// NewSystem creates an empty system with its own catalog.
func NewSystem(cfg Config) (*System, error) {
	if cfg.ClusterName == "" {
		return nil, fmt.Errorf("cloudviews: ClusterName is required")
	}
	eng := core.NewEngine(core.Config{
		ClusterName:          cfg.ClusterName,
		Catalog:              catalog.New(),
		ClusterCfg:           cluster.Config{Capacity: cfg.Capacity, VCs: cfg.VCs},
		Selection:            cfg.Selection,
		DisableObservability: cfg.DisableObservability,
		Faults:               cfg.Faults,
		Guard:                cfg.Guard,
		StorageEngine:        cfg.StorageEngine,
		PlanCacheSize:        cfg.PlanCacheSize,
	})
	if eng.Metrics != nil {
		// Repository metrics are wired at the System layer (not inside
		// core.NewEngine) so purely simulated-time tools keep a
		// deterministic metrics export; the wall timer enables the
		// merge/query duration histograms.
		eng.Repo.SetMetrics(eng.Metrics)
		eng.Repo.SetTimer(func() int64 { return time.Now().UnixNano() })
	}
	return &System{
		engine:  eng,
		cfg:     cfg,
		workers: make(map[string]*vcWorker),
	}, nil
}

// Engine exposes the underlying engine for advanced use (experiments,
// extensions). Most callers should not need it.
func (s *System) Engine() *core.Engine { return s.engine }

// DefineDataset registers a dataset schema.
func (s *System) DefineDataset(name string, schema Schema) error {
	_, err := s.engine.Catalog.Define(name, schema)
	return err
}

// PublishDataset bulk-publishes a new immutable version of a dataset. The
// system keeps t itself and every job scans it in place: the caller must not
// write to t or its rows afterwards.
func (s *System) PublishDataset(name string, t *Table) error {
	_, err := s.engine.Catalog.BulkUpdate(name, s.Clock(), t)
	return err
}

// SetScaleFactor sets a dataset's logical size multiplier (tables stay small
// in memory; work and IO account at multiplied scale).
func (s *System) SetScaleFactor(name string, f float64) {
	s.engine.Catalog.SetScaleFactor(name, f)
}

// OnboardVC enables CloudViews for a virtual cluster.
func (s *System) OnboardVC(vc string) { s.engine.OnboardVC(vc) }

// OffboardVC disables CloudViews for a virtual cluster and purges its views.
// Asynchronously accepted jobs for the VC are drained first — OffboardVC
// blocks until they complete, then shuts the VC's submission worker down and
// removes it, so an offboarded tenant leaves no goroutine or queue behind.
//
// Offboarding does not ban the tenant: a later SubmitScriptAsync for the
// same VC lazily starts a fresh worker and is accepted (with CloudViews
// disabled until the VC is onboarded again). A submission racing the
// offboard is either drained by it or lands on the fresh worker; it is
// never silently dropped.
func (s *System) OffboardVC(vc string) {
	s.mu.Lock()
	w := s.workers[vc]
	delete(s.workers, vc)
	s.mu.Unlock()
	if w != nil {
		w.shutdown()
		<-w.done
	}
	s.engine.OffboardVC(vc)
}

// AdvanceClock moves the simulated time forward. Views expire and seal
// against this clock, so the store reflects the new time at once.
func (s *System) AdvanceClock(d time.Duration) { s.engine.AdvanceClock(d) }

// Clock returns the simulated time: the engine's one clock, which job
// submissions move forward and RunDay(d) leaves at midnight of day d+1.
func (s *System) Clock() time.Time { return s.engine.Clock() }

// SubmitScript compiles and executes one job immediately (data plane only;
// use RunDay for cluster-scheduled batches). Safe to call from multiple
// goroutines; use SubmitScriptAsync/SubmitBatch for per-VC FIFO ordering.
func (s *System) SubmitScript(job Job) (*JobResult, error) {
	in, err := s.toInput(job)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.assignID(&in)
	s.mu.Unlock()
	return s.run(in)
}

// run executes one prepared input through the engine.
func (s *System) run(in workload.JobInput) (*JobResult, error) {
	run, err := s.engine.CompileAndExecute(in)
	if err != nil {
		return nil, err
	}
	return &JobResult{
		ID:          in.ID,
		Output:      run.Exec.Table,
		ViewsBuilt:  len(run.Compile.Proposed),
		ViewsReused: len(run.Compile.Matched),
		Work:        run.Exec.TotalWork,
		InputBytes:  run.Exec.InputBytes,
		DataRead:    run.Exec.TotalRead,
		Trace:       run.Trace,
		plan:        run.Compile.Plan,
		explain:     run.Explain,
	}, nil
}

// Metrics returns the system's metrics registry, or nil when observability
// is disabled. ExportString() renders it in Prometheus text format with a
// deterministic family and series order.
func (s *System) Metrics() *MetricsRegistry { return s.engine.Metrics }

// Telemetry snapshots the feedback-loop health pipeline (nil when
// observability is disabled): day-cadence series, critical-path breakdowns,
// and the SLO alert log.
func (s *System) Telemetry() *RunTelemetry { return s.engine.Telemetry.Snapshot() }

// Guard returns the runtime guardrail subsystem, or nil when Config.Guard is
// disabled (all guard methods no-op on nil).
func (s *System) Guard() *Guard { return s.engine.Guard() }

// RunDay executes a batch of jobs through the full pipeline including the
// cluster schedule, producing the day's metrics.
func (s *System) RunDay(day int, jobs []Job) (DayMetrics, error) {
	ins := make([]workload.JobInput, 0, len(jobs))
	for _, j := range jobs {
		in, err := s.toInput(j)
		if err != nil {
			return DayMetrics{}, err
		}
		ins = append(ins, in)
	}
	// IDs are assigned only after the whole batch validates, so a rejected
	// day consumes no sequence numbers.
	s.mu.Lock()
	for i := range ins {
		s.assignID(&ins[i])
	}
	s.mu.Unlock()
	return s.engine.RunDay(day, ins)
}

// Analyze runs the offline feedback loop over the trailing window ending now:
// view selection over the workload repository and annotation publishing.
// Returns the number of job templates that received annotations.
func (s *System) Analyze(window time.Duration) int {
	to := s.Clock().Add(24 * time.Hour)
	from := to.Add(-window - 24*time.Hour)
	tags, _ := s.engine.RunAnalysis(from, to)
	return tags
}

// ViewCount returns the number of live materialized views.
func (s *System) ViewCount() int { return s.engine.Store.Count() }

// ViewStorageBytes returns the logical bytes of views held by a VC.
func (s *System) ViewStorageBytes(vc string) int64 { return s.engine.Store.UsedBytes(vc) }

// autoJobID renders "job-%06d" without fmt (one allocation for the string
// itself; auto-ID assignment is on the per-submission hot path).
func autoJobID(seq int) string {
	var tmp, dig [24]byte
	b := append(tmp[:0], "job-"...)
	digits := strconv.AppendInt(dig[:0], int64(seq), 10)
	for i := len(digits); i < 6; i++ {
		b = append(b, '0')
	}
	b = append(b, digits...)
	return string(b)
}

// assignID allocates the next auto job ID for an input that has none. The
// caller holds s.mu. Sequence numbers are consumed only here — after a
// submission has been accepted — so rejected or shed submissions (validation
// errors, ErrClosed, server-side admission control) never shift the IDs of
// later accepted jobs: the same accepted stream yields the same IDs
// regardless of interleaved rejected traffic.
func (s *System) assignID(in *workload.JobInput) {
	if in.ID == "" {
		s.seq++
		in.ID = autoJobID(s.seq)
	}
}

// toInput validates a job and fills defaults. It is side-effect-free: in
// particular it does not consume a job sequence number (see assignID) —
// inputs leave here with ID "" when the job carried none.
func (s *System) toInput(job Job) (workload.JobInput, error) {
	if job.Script == "" {
		return workload.JobInput{}, fmt.Errorf("cloudviews: job %q has no script", job.ID)
	}
	in := workload.JobInput{
		ID:       job.ID,
		Cluster:  s.cfg.ClusterName,
		VC:       job.VC,
		Pipeline: job.Pipeline,
		User:     job.User,
		Runtime:  job.Runtime,
		Script:   job.Script,
		Params:   job.Params,
		Submit:   job.Submit,
		OptIn:    !job.OptOut,
	}
	if in.VC == "" {
		in.VC = "default-vc"
	}
	if in.Pipeline == "" {
		in.Pipeline = "adhoc"
	}
	if in.Runtime == "" {
		in.Runtime = "scope-r1"
	}
	if in.Submit.IsZero() {
		in.Submit = s.Clock()
	}
	return in, nil
}

package core

import (
	"fmt"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/cluster"
	"cloudviews/internal/exec"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/guard"
	"cloudviews/internal/insights"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
	"cloudviews/internal/telemetry"
	"cloudviews/internal/workload"
)

// DayMetrics aggregates one simulated day — the unit the paper's Figure 6/7
// series plot cumulatively.
type DayMetrics struct {
	Day  int
	Date time.Time
	Jobs int

	// Outcome is the sum of the day's job outcomes.
	repository.Outcome
	ViewsBuilt  int
	ViewsReused int

	// Alerts are the SLO watchdog findings for this day, in deterministic
	// firing order (empty on healthy days and when observability is off).
	Alerts []telemetry.Alert

	// GuardDecisions are the guard's state transitions for this day (breaker
	// trips, kill-switch moves), in deterministic order
	// (empty when the guard is disabled).
	GuardDecisions []guard.Decision
}

// RunDay executes one day's jobs end to end: data plane in submission order,
// then the cluster schedule, then repository/metric recording. The executor
// result cache is reset daily (inputs regenerate daily, so strict signatures
// rarely survive a day boundary).
func (e *Engine) RunDay(day int, jobs []workload.JobInput) (DayMetrics, error) {
	e.resetCache()
	dayStart := fixtures.Epoch.AddDate(0, 0, day)

	runs := make([]*JobRun, 0, len(jobs))
	specs := make([]cluster.JobSpec, 0, len(jobs))
	for _, in := range jobs {
		run, err := e.CompileAndExecute(in)
		if err != nil {
			return DayMetrics{}, err
		}
		runs = append(runs, run)
		specs = append(specs, cluster.JobSpec{
			ID:     in.ID,
			VC:     in.VC,
			Submit: in.Submit,
			Stages: run.Stages,
			// Time lost to failed job attempts is charged like compile
			// latency: it delays the job's start without consuming tokens.
			Compile: run.Compile.CompileLatency + run.RetryDelay,
			Attempt: run.Attempts,
		})
	}

	outcomes, err := e.Sim.Run(specs)
	if err != nil {
		return DayMetrics{}, err
	}
	byID := make(map[string]cluster.Outcome, len(outcomes))
	for _, o := range outcomes {
		byID[o.ID] = o
	}

	m := DayMetrics{Day: day, Date: dayStart, Jobs: len(runs)}
	for _, run := range runs {
		o, ok := byID[run.Input.ID]
		if !ok {
			return DayMetrics{}, fmt.Errorf("core: job %s missing from schedule", run.Input.ID)
		}
		rec := run.Record
		out := repository.Outcome{
			LatencySec:       o.Latency.Seconds(),
			ProcessingSec:    o.Processing,
			BonusSec:         o.Bonus,
			Containers:       int64(o.Containers),
			InputBytes:       run.Exec.InputBytes,
			DataReadBytes:    run.Exec.TotalRead,
			QueueLen:         int64(o.QueueLenAtStart),
			JobRetries:       run.Attempts - 1,
			StageRetries:     o.StageRetries,
			BonusPreemptions: o.BonusPreemptions,
			// FaultDelay covers the cluster schedule's retry/preemption cost plus
			// the data plane's job-retry delay.
			FaultDelaySec:  o.FaultDelay.Seconds() + run.RetryDelay.Seconds(),
			ReuseFallbacks: len(run.Exec.FallbackSigs),
		}
		// rec is the repository's and read-only; the schedule goes onto the
		// successor record SetOutcome installs.
		e.Repo.SetOutcome(rec.JobID, o.Start, o.End, out)
		if o.QueueWait > 0 {
			run.Trace.SpanAt("queue:cluster", o.Start.Add(-o.QueueWait), o.QueueWait)
			// The data plane already observed this job (without the cluster
			// queue, which only the schedule knows), so the queue time is
			// charged onto the day's breakdown here.
			e.Telemetry.AddQueueWait(day, rec.VC, o.QueueWait.Seconds())
		}
		// Cluster-side recovery cost (stage retries, preemptions); the data
		// plane's own job-retry delay was already counted from the trace.
		e.Telemetry.AddFaultLoss(day, rec.VC, o.FaultDelay.Seconds())
		// The guard's per-VC latency series uses the scheduled latency, which
		// only the cluster outcome knows.
		e.guard.AddLatency(day, rec.VC, out.LatencySec)

		m.Add(out)
		m.ViewsBuilt += rec.ViewsBuilt
		m.ViewsReused += rec.ViewsReused
	}

	// End of day: advance the clock past the last completion and expire old
	// views, then sample the telemetry series and run the SLO watchdog over
	// the day's data.
	e.SetClock(dayStart.AddDate(0, 0, 1))
	e.Store.GC()
	// The guard's day-boundary state machine runs before the telemetry
	// sample so the sampled guard gauges reflect the day's transitions.
	m.GuardDecisions = e.guard.EndOfDay(day)
	m.Alerts = e.sampleTelemetry(day, &m)
	return m, nil
}

// sampleTelemetry takes the day-boundary sample: the full metrics-registry
// snapshot plus derived per-day gauges from DayMetrics and the substrates,
// then evaluates the watchdog and returns the day's alerts. No-op (nil) when
// observability is disabled.
func (e *Engine) sampleTelemetry(day int, m *DayMetrics) []telemetry.Alert {
	if e.Telemetry == nil {
		return nil
	}
	sample := make(map[string]float64, 64)
	for name, v := range e.Metrics.Snapshot() {
		sample[name] = v
	}

	jobs := float64(m.Jobs)
	sample[telemetry.SeriesJobs] = jobs
	hitRate := 0.0
	queueAvg := 0.0
	if m.Jobs > 0 {
		hitRate = float64(m.ViewsReused) / jobs
		queueAvg = float64(m.QueueLen) / jobs
	}
	sample[telemetry.SeriesHitRate] = hitRate
	sample[telemetry.SeriesLatencySec] = m.LatencySec
	sample[telemetry.SeriesProcessingSec] = m.ProcessingSec
	sample[telemetry.SeriesBonusSec] = m.BonusSec
	sample[telemetry.SeriesQueueLenAvg] = queueAvg
	sample[telemetry.SeriesViewsBuilt] = float64(m.ViewsBuilt)
	sample[telemetry.SeriesViewsReused] = float64(m.ViewsReused)
	sample[telemetry.SeriesFaultDelaySec] = m.FaultDelaySec
	sample[telemetry.SeriesFaultRecoveries] = float64(m.JobRetries + m.StageRetries + m.BonusPreemptions + m.ReuseFallbacks)

	// Substrate gauges that live outside the registry (the storage gauges in
	// the registry are per-VC; these are the cluster-wide views).
	stats := e.Store.Snapshot()
	sample[telemetry.SeriesStoreLiveViews] = float64(stats.Live)
	sample[telemetry.SeriesStorePending] = float64(e.Store.PendingViews())
	sample[telemetry.SeriesRepoJobs] = float64(e.Repo.Len())
	sample[telemetry.SeriesRepoSubexprs] = float64(e.Repo.SubexprCount())

	// Guard gauges enter the sample only when a guard exists, keeping
	// guard-free telemetry exports byte-identical to earlier builds.
	e.guard.Sample(sample)

	return e.Telemetry.EndOfDay(day, sample)
}

// RunAnalysis executes the offline half of the feedback loop over the
// trailing window [from, to): view selection over the workload repository and
// annotation publishing to the insights service. It returns the number of
// tags published and the candidates rejected by schedule-aware filtering.
func (e *Engine) RunAnalysis(from, to time.Time) (tags int, scheduleRejected int) {
	byVC, rejected := analysis.SelectViews(e.Repo, from, to, e.Selection)
	perTag := make(map[signature.Tag][]insights.Annotation)
	for vc, cands := range byVC {
		for _, c := range cands {
			ann := insights.Annotation{
				Recurring:     c.Recurring,
				VC:            vc,
				ExpectedRows:  c.ExpectedRows,
				ExpectedBytes: c.ExpectedBytes,
				ExpectedWork:  c.ExpectedWork,
				Utility:       c.Utility,
			}
			for _, tmpl := range c.JobTemplates {
				tag := signature.TagForTemplate(tmpl)
				perTag[tag] = append(perTag[tag], ann)
			}
		}
	}
	// Replace the whole annotation state: candidates that fell out of the
	// window stop being selected, so their views stop being materialized —
	// the just-in-time property of §2.4.
	e.Insights.ReplaceAllAnnotations(perTag)
	return len(perTag), rejected
}

// RecordWorkloadDay compiles (but does not execute or schedule) a day's jobs
// and records their subexpressions in the workload repository — the
// telemetry-only mode the long-window workload analyses use (Figures 2, 3,
// 8), where only compile-time overlap structure matters.
func (e *Engine) RecordWorkloadDay(jobs []workload.JobInput) error {
	for _, in := range jobs {
		e.advanceClock(in.Submit)
		opt := &optimizer.Optimizer{Signer: e.signerFor(in.Runtime), Est: e.Est, History: e.History}
		prep, err := e.prepare(in, opt)
		if err != nil {
			return err
		}
		cr := opt.CompilePrepared(prep, optimizer.CompileOptions{
			JobID: in.ID, Cluster: in.Cluster, VC: in.VC, OptIn: false,
		})
		e.Repo.Add(e.buildRecord(in, cr, &exec.RunResult{}))
	}
	return nil
}

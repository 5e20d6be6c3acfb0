// Package cluster is a discrete-event simulator of a Cosmos-like analytics
// cluster: virtual clusters (VCs) with guaranteed container tokens, FIFO job
// queues per VC, stage-DAG execution, and Apollo-style opportunistic ("bonus")
// allocation of idle capacity. It produces exactly the quantities the paper's
// production evaluation reports per job: queue wait, latency (critical path),
// total processing time, bonus processing time, containers used, and the
// queue length observed at submission.
package cluster

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"cloudviews/internal/fault"
	"cloudviews/internal/obs"
)

// StageSpec describes one schedulable stage of a job.
type StageSpec struct {
	// Work is the stage's total compute in container-seconds.
	Work float64
	// Width is the planned container parallelism (from the optimizer).
	Width int
	// Deps are indexes of stages that must finish first.
	Deps []int
	// IsSpool marks view-materialization stages: their work is real but they
	// are off the critical path (early sealing releases consumers as soon as
	// the stage itself finishes).
	IsSpool bool
}

// JobSpec is a job submitted to the simulator.
type JobSpec struct {
	ID      string
	VC      string
	Submit  time.Time
	Stages  []StageSpec
	Compile time.Duration // compile latency incl. insights round trips
	// Attempt is the job-level retry attempt (1-based; 0 is treated as 1).
	// It keys stage-fault decisions so a retried job re-rolls its faults.
	Attempt int
	// OnStart is invoked (if set) when the job is admitted, with the
	// simulated start time — the engine uses it to seal views early.
	OnStart func(start time.Time)

	queueLenAtSubmit int
}

// Outcome is the per-job result.
type Outcome struct {
	ID              string
	VC              string
	Submit          time.Time
	Start           time.Time
	End             time.Time
	QueueWait       time.Duration
	Latency         time.Duration // End - Submit (incl. queueing + compile)
	QueueLenAtStart int           // jobs ahead in the VC queue at submission
	Processing      float64       // container-seconds, all stages
	Bonus           float64       // container-seconds on opportunistic containers
	Containers      int           // container instances launched
	// StageRetries counts failed stage attempts that were retried.
	StageRetries int
	// BonusPreemptions counts stages whose bonus containers were preempted
	// mid-stage and whose lost work re-ran on guaranteed tokens.
	BonusPreemptions int
	// FaultDelay is the critical-path time added by stage retries, backoff,
	// and preemption recovery — the job's latency minus what the same
	// schedule would have cost fault-free.
	FaultDelay time.Duration

	// bonusPeak is the peak bonus-container concurrency, held against
	// cluster capacity for the job's duration.
	bonusPeak int
}

// VCConfig sizes one virtual cluster.
type VCConfig struct {
	Name string
	// Tokens is the guaranteed container allocation.
	Tokens int
}

// Config sizes the cluster.
type Config struct {
	// Capacity is the total container count; idle capacity beyond the sum of
	// running jobs' tokens is handed out as bonus.
	Capacity int
	VCs      []VCConfig
}

// stageStartup is the fixed per-stage scheduling overhead.
const stageStartup = 500 * time.Millisecond

// Simulator executes a batch of jobs and returns their outcomes.
type Simulator struct {
	cfg      Config
	vcTokens map[string]int

	// faults, when non-nil, injects stage failures and bonus preemptions.
	// With neither point enabled (nil included) execute computes the exact
	// fault-free schedule.
	faults *fault.Injector

	// metrics, when wired via SetMetrics; nil-safe no-ops otherwise.
	registry     *obs.Registry
	mGuaranteed  *obs.Counter
	mBonus       *obs.Counter
	hQueueLen    *obs.Histogram
	mStageRetry  *obs.Counter
	mPreemptions *obs.Counter
}

// SetMetrics registers the simulator's scheduling metrics with a registry.
// Call before the first Run.
func (s *Simulator) SetMetrics(r *obs.Registry) {
	s.registry = r
	s.mGuaranteed = r.Counter("cloudviews_cluster_guaranteed_seconds_total")
	s.mBonus = r.Counter("cloudviews_cluster_bonus_seconds_total")
	s.hQueueLen = r.Histogram("cloudviews_cluster_queue_length", []float64{0, 1, 2, 4, 8, 16, 32, 64})
	s.faultMetrics()
}

// SetFaults wires a fault injector; retries follow the fault package's
// recovery policy. A nil injector keeps the fault-free schedule. Call before
// the first Run; SetMetrics and SetFaults may be called in either order.
func (s *Simulator) SetFaults(inj *fault.Injector) {
	s.faults = inj
	s.faultMetrics()
}

// faultMetrics creates the retry/preemption counter families, but only once
// both a registry and an injector exist — fault-free runs must export exactly
// the seed metric set.
func (s *Simulator) faultMetrics() {
	if s.registry == nil || s.faults == nil {
		return
	}
	s.mStageRetry = s.registry.Counter("cloudviews_stage_retries_total")
	s.mPreemptions = s.registry.Counter("cloudviews_bonus_preemptions_total")
}

// New creates a simulator. Unknown VCs referenced by jobs get a default token
// allocation of 50.
func New(cfg Config) *Simulator {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1000
	}
	s := &Simulator{cfg: cfg, vcTokens: make(map[string]int)}
	for _, vc := range cfg.VCs {
		s.vcTokens[vc.Name] = vc.Tokens
	}
	return s
}

func (s *Simulator) tokensFor(vc string) int {
	if t, ok := s.vcTokens[vc]; ok && t > 0 {
		return t
	}
	return 50
}

// event is a simulator event.
type event struct {
	at   time.Time
	seq  int // tiebreaker for determinism
	kind int // 0 = arrival, 1 = completion
	job  *runningJob
	spec *JobSpec
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	if q[i].kind != q[j].kind {
		return q[i].kind > q[j].kind // completions before arrivals at same instant
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

type runningJob struct {
	spec    *JobSpec
	tokens  int
	outcome Outcome
}

type vcState struct {
	freeTokens int
	queue      []*JobSpec
}

// Run simulates all jobs and returns outcomes sorted by submission time.
func (s *Simulator) Run(jobs []JobSpec) ([]Outcome, error) {
	for i := range jobs {
		if len(jobs[i].Stages) == 0 {
			return nil, fmt.Errorf("cluster: job %s has no stages", jobs[i].ID)
		}
	}
	// Stable order for determinism.
	sorted := make([]*JobSpec, len(jobs))
	for i := range jobs {
		sorted[i] = &jobs[i]
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		if !sorted[i].Submit.Equal(sorted[j].Submit) {
			return sorted[i].Submit.Before(sorted[j].Submit)
		}
		return sorted[i].ID < sorted[j].ID
	})

	vcs := make(map[string]*vcState)
	vcOf := func(name string) *vcState {
		st, ok := vcs[name]
		if !ok {
			st = &vcState{freeTokens: s.tokensFor(name)}
			vcs[name] = st
		}
		return st
	}

	clusterInUse := 0
	var outcomes []Outcome
	var q eventQueue
	seq := 0
	push := func(e *event) {
		e.seq = seq
		seq++
		heap.Push(&q, e)
	}
	for _, spec := range sorted {
		push(&event{at: spec.Submit, kind: 0, spec: spec})
	}

	// admit starts the job at the head of a VC queue if tokens allow.
	admit := func(vc *vcState, now time.Time) {
		for len(vc.queue) > 0 {
			head := vc.queue[0]
			need := s.jobTokens(head)
			if need > vc.freeTokens {
				return
			}
			vc.queue = vc.queue[1:]
			vc.freeTokens -= need
			clusterInUse += need

			bonusAvail := s.cfg.Capacity - clusterInUse
			if bonusAvail < 0 {
				bonusAvail = 0
			}
			rj := &runningJob{spec: head, tokens: need, outcome: s.execute(head, now, need, bonusAvail)}
			clusterInUse += rj.outcome.bonusPeak
			if head.OnStart != nil {
				head.OnStart(now.Add(head.Compile))
			}
			push(&event{at: rj.outcome.End, kind: 1, job: rj})
		}
	}

	for q.Len() > 0 {
		e := heap.Pop(&q).(*event)
		switch e.kind {
		case 0: // arrival
			vc := vcOf(e.spec.VC)
			// Queue length the job observes: jobs waiting ahead of it, plus
			// itself if it cannot start immediately.
			ahead := len(vc.queue)
			vc.queue = append(vc.queue, e.spec)
			admit(vc, e.at)
			stillWaiting := false
			for _, q := range vc.queue {
				if q == e.spec {
					stillWaiting = true
					break
				}
			}
			e.spec.queueLenAtSubmit = ahead
			if stillWaiting {
				e.spec.queueLenAtSubmit = ahead + 1
			}
		case 1: // completion
			vc := vcOf(e.job.spec.VC)
			vc.freeTokens += e.job.tokens
			clusterInUse -= e.job.tokens + e.job.outcome.bonusPeak
			outcomes = append(outcomes, e.job.outcome)
			admit(vc, e.at)
		}
	}

	sort.Slice(outcomes, func(i, j int) bool {
		if !outcomes[i].Submit.Equal(outcomes[j].Submit) {
			return outcomes[i].Submit.Before(outcomes[j].Submit)
		}
		return outcomes[i].ID < outcomes[j].ID
	})
	for _, o := range outcomes {
		s.mGuaranteed.Add(o.Processing - o.Bonus)
		s.mBonus.Add(o.Bonus)
		s.hQueueLen.Observe(float64(o.QueueLenAtStart))
		if o.StageRetries > 0 {
			s.mStageRetry.Add(float64(o.StageRetries))
		}
		if o.BonusPreemptions > 0 {
			s.mPreemptions.Add(float64(o.BonusPreemptions))
		}
	}
	return outcomes, nil
}

// jobTokens decides the guaranteed tokens a job holds: its peak stage width,
// capped by the VC allocation.
func (s *Simulator) jobTokens(spec *JobSpec) int {
	peak := 1
	for _, st := range spec.Stages {
		if st.Width > peak {
			peak = st.Width
		}
	}
	if limit := s.tokensFor(spec.VC); peak > limit {
		peak = limit
	}
	return peak
}

// stageKey builds the deterministic decision key for one stage attempt. It
// includes the job-level attempt so a retried (recompiled) job re-rolls its
// stage faults rather than hitting the identical schedule again.
func stageKey(spec *JobSpec, stage, attempt int) string {
	ja := spec.Attempt
	if ja < 1 {
		ja = 1
	}
	return fmt.Sprintf("%s/j%d/s%02d/a%d", spec.ID, ja, stage, attempt)
}

// execute computes the job's schedule: per-stage durations under the token
// and bonus allocation, the critical path (ignoring spool side branches), and
// the processing/bonus/container totals — with stage failures and bonus
// preemptions woven in when the injector enables them. Failure model per
// stage:
//
//   - Stage failure: the attempt runs to its halfway point, the container is
//     lost, and the scheduler retries after capped exponential backoff. The
//     half attempt's work is charged (resources were really consumed). At
//     most fault.DefaultMaxStageAttempts per stage and
//     fault.DefaultStageRetryBudget retries per job;
//     past either bound the attempt is never failed (the job manager has
//     escalated to reliable resources), so stages always complete.
//   - Bonus preemption: at the stage's halfway point the opportunistic
//     containers are reclaimed; the work they contributed to the first half
//     is discarded and re-run, together with the second half, on guaranteed
//     tokens only. Lost work is charged as both processing and bonus.
//
// A stage no fault hits costs cleanDur whether or not faults are enabled, so
// a zero-rate injector reproduces the fault-free schedule bit for bit. With neither point enabled no decision key is
// rendered and no second schedule is kept.
func (s *Simulator) execute(spec *JobSpec, now time.Time, tokens, bonusAvail int) Outcome {
	start := now.Add(spec.Compile)
	n := len(spec.Stages)
	finish := make([]time.Duration, n) // finish offset from start
	// finishClean is the same schedule without faults, which FaultDelay is
	// measured against. When no stage can fail it is the schedule itself.
	faulty := s.faults.Enabled(fault.StageFail) || s.faults.Enabled(fault.BonusPreempt)
	finishClean := finish
	if faulty {
		finishClean = make([]time.Duration, n)
	}
	var processing, bonus float64
	containers := 0
	bonusPeak := 0
	stageRetries := 0
	preemptions := 0
	budget := fault.DefaultStageRetryBudget

	for i, st := range spec.Stages {
		var ready, readyClean time.Duration
		for _, d := range st.Deps {
			if d >= 0 && d < n {
				if finish[d] > ready {
					ready = finish[d]
				}
				if finishClean[d] > readyClean {
					readyClean = finishClean[d]
				}
			}
		}
		alloc := st.Width
		if alloc < 1 {
			alloc = 1
		}
		b := 0
		if alloc > tokens {
			b = alloc - tokens
			if b > bonusAvail {
				b = bonusAvail
			}
			alloc = tokens + b
		}
		if b > bonusPeak {
			bonusPeak = b
		}
		// Container instances launched follow the PLANNED width: in Cosmos,
		// over-partitioned stages instantiate their containers (possibly
		// sequentially over waves); the simulator's token clamp only models
		// how fast they run.
		w := st.Width
		if w < 1 {
			w = 1
		}

		cleanDur := time.Duration(st.Work/float64(alloc)*float64(time.Second)) + stageStartup
		var stageDur time.Duration
		for attempt := 1; ; attempt++ {
			var key string // read only by an enabled point
			if faulty {
				key = stageKey(spec, i, attempt)
			}
			if attempt < fault.DefaultMaxStageAttempts && budget > 0 &&
				s.faults.Should(fault.StageFail, key) {
				// The attempt dies halfway through: its containers' work so
				// far is wasted but was consumed, and the retry waits out the
				// backoff before relaunching.
				half := time.Duration(st.Work/2/float64(alloc)*float64(time.Second)) + stageStartup
				stageDur += half + fault.Backoff(attempt)
				processing += st.Work / 2
				bonus += st.Work / 2 * float64(b) / float64(alloc)
				containers += w
				stageRetries++
				budget--
				continue
			}
			if b > 0 && s.faults.Should(fault.BonusPreempt, key) {
				// Preempted at the halfway point: the bonus containers'
				// first-half contribution is lost and re-run, with the second
				// half, on guaranteed tokens alone.
				lost := st.Work / 2 * float64(b) / float64(alloc)
				t1 := time.Duration(st.Work / 2 / float64(alloc) * float64(time.Second))
				t2 := time.Duration((st.Work/2 + lost) / float64(tokens) * float64(time.Second))
				stageDur += t1 + t2 + stageStartup
				processing += st.Work + lost
				bonus += lost
				preemptions++
			} else {
				stageDur += cleanDur
				processing += st.Work
				bonus += st.Work * float64(b) / float64(alloc)
			}
			break
		}
		finish[i] = ready + stageDur
		finishClean[i] = readyClean + cleanDur
		containers += w
	}

	// Critical path: the finish time of the last non-spool stage (spool
	// writes overlap with the rest of the query and are sealed early).
	var critical, criticalClean time.Duration
	for i, st := range spec.Stages {
		if st.IsSpool {
			continue
		}
		if finish[i] > critical {
			critical = finish[i]
		}
		if finishClean[i] > criticalClean {
			criticalClean = finishClean[i]
		}
	}
	end := start.Add(critical)

	return Outcome{
		ID:               spec.ID,
		VC:               spec.VC,
		Submit:           spec.Submit,
		Start:            start,
		End:              end,
		QueueWait:        start.Sub(spec.Submit) - spec.Compile,
		Latency:          end.Sub(spec.Submit),
		QueueLenAtStart:  spec.queueLenAtSubmit,
		Processing:       processing,
		Bonus:            bonus,
		Containers:       containers,
		StageRetries:     stageRetries,
		BonusPreemptions: preemptions,
		FaultDelay:       critical - criticalClean,
		bonusPeak:        bonusPeak,
	}
}

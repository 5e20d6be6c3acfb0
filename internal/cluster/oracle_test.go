package cluster

// The schedule function the simulator ran when no injector was wired, kept as
// the reference execute is tested against (fault_test.go): per-stage durations
// under the token and bonus allocation, the critical path ignoring spool side
// branches, and the processing/bonus/container totals, with no notion of a
// fault.

import "time"

func (s *Simulator) executeClean(spec *JobSpec, now time.Time, tokens, bonusAvail int) Outcome {
	start := now.Add(spec.Compile)
	n := len(spec.Stages)
	finish := make([]time.Duration, n) // finish offset from start
	var processing, bonus float64
	containers := 0
	bonusPeak := 0

	for i, st := range spec.Stages {
		var ready time.Duration
		for _, d := range st.Deps {
			if d >= 0 && d < n && finish[d] > ready {
				ready = finish[d]
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
		dur := time.Duration(st.Work/float64(alloc)*float64(time.Second)) + stageStartup
		finish[i] = ready + dur
		processing += st.Work
		if alloc > 0 {
			bonus += st.Work * float64(b) / float64(alloc)
		}
		// Container instances launched follow the PLANNED width: in Cosmos,
		// over-partitioned stages instantiate their containers (possibly
		// sequentially over waves); the simulator's token clamp only models
		// how fast they run.
		w := st.Width
		if w < 1 {
			w = 1
		}
		containers += w
	}

	// Critical path: the finish time of the last non-spool stage (spool
	// writes overlap with the rest of the query and are sealed early).
	var critical time.Duration
	for i, st := range spec.Stages {
		if st.IsSpool {
			continue
		}
		if finish[i] > critical {
			critical = finish[i]
		}
	}
	end := start.Add(critical)

	return Outcome{
		ID:              spec.ID,
		VC:              spec.VC,
		Submit:          spec.Submit,
		Start:           start,
		End:             end,
		QueueWait:       start.Sub(spec.Submit) - spec.Compile,
		Latency:         end.Sub(spec.Submit),
		QueueLenAtStart: spec.queueLenAtSubmit,
		Processing:      processing,
		Bonus:           bonus,
		Containers:      containers,
		bonusPeak:       bonusPeak,
	}
}

// AloneClean is the reference's outcome for spec submitted alone to an idle
// cluster: admitted at Submit, nothing queued ahead, all capacity beyond its
// own tokens available as bonus.
func (s *Simulator) AloneClean(spec JobSpec) Outcome {
	tokens := s.jobTokens(&spec)
	return s.executeClean(&spec, spec.Submit, tokens, s.cfg.Capacity-tokens)
}

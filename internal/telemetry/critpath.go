package telemetry

import (
	"slices"
	"strings"
	"time"

	"cloudviews/internal/obs"
)

// Phases lists the canonical phase buckets in display order. "other" absorbs
// any instant of the trace wall span not covered by a recorded span (e.g. the
// gap between the data-plane timeline and an out-of-band cluster queue span).
var Phases = []string{
	"parse", "bind", "insights", "optimize", "queue",
	"execute", "materialize", "seal", "other",
}

// phasePriority resolves overlapping spans: when two spans cover the same
// instant, the instant is attributed to the phase doing the most specific
// work. The seal window deliberately ranks below execute/materialize — it
// overlaps the whole post-submit stretch, and only the part not otherwise
// accounted for is "waiting for the seal".
var phasePriority = map[string]int{
	"materialize": 9,
	"execute":     8,
	"queue":       7,
	"insights":    6,
	"optimize":    5,
	"bind":        4,
	"parse":       3,
	"seal":        2,
	"other":       0,
}

// PhaseOf maps a span name to its phase bucket: the prefix before the first
// ':' ("execute:stage-03" → "execute", "queue:cluster" → "queue"). Unknown
// prefixes keep their own name so new span families show up rather than
// vanish.
func PhaseOf(spanName string) string {
	if i := strings.IndexByte(spanName, ':'); i >= 0 {
		return spanName[:i]
	}
	return spanName
}

// Breakdown is the critical-path attribution of one job trace. Phase sums to
// WallSec exactly (the sweep attributes every elementary interval of the
// trace's wall span to exactly one phase), which the reconciliation property
// test pins.
type Breakdown struct {
	// WallSec is the trace wall span: latest span end minus earliest span
	// start, in seconds.
	WallSec float64
	// Phase maps phase name → attributed seconds.
	Phase map[string]float64
	// FaultLossSec is the simulated time lost to fault recovery recorded on
	// the trace (job-retry backoff + recompile, from job.retry event values).
	FaultLossSec float64
}

// Analyze attributes a job trace's wall span to phases. It is a pure
// function of the trace: deterministic, and safe to call on a nil trace
// (returns the zero Breakdown). Reuse decisions are not on the trace; the
// collector reads them from the job's explain recorder.
func Analyze(tr *obs.Trace) Breakdown {
	bd := Breakdown{Phase: make(map[string]float64)}
	if tr == nil {
		return bd
	}
	type interval struct {
		phase      string
		start, end time.Time
	}
	ivs := make([]interval, 0, 16)
	var lo, hi time.Time
	first := true
	tr.ForEachSpan(func(s obs.Span) {
		end := s.Start.Add(s.Dur)
		if first || s.Start.Before(lo) {
			lo = s.Start
		}
		if first || end.After(hi) {
			hi = end
		}
		first = false
		if s.Dur > 0 {
			ivs = append(ivs, interval{PhaseOf(s.Name), s.Start, end})
		}
	})
	if first {
		return bd // zero-span trace
	}
	bd.WallSec = hi.Sub(lo).Seconds()

	// Sweep: cut the wall span at every span boundary and attribute each
	// elementary slice to the highest-priority covering phase ("other" when
	// uncovered). The slices partition [lo, hi], so the phase totals sum to
	// the wall span by construction.
	var cutBuf [2*16 + 2]time.Time
	cuts := append(cutBuf[:0], lo, hi)
	for _, iv := range ivs {
		cuts = append(cuts, iv.start, iv.end)
	}
	slices.SortFunc(cuts, time.Time.Compare)
	uniq := cuts[:1]
	for _, c := range cuts[1:] {
		if !c.Equal(uniq[len(uniq)-1]) {
			uniq = append(uniq, c)
		}
	}
	for i := 0; i+1 < len(uniq); i++ {
		a, b := uniq[i], uniq[i+1]
		best, bestPrio := "other", -1
		for _, iv := range ivs {
			if !iv.start.After(a) && !iv.end.Before(b) {
				if p := phasePrio(iv.phase); p > bestPrio {
					best, bestPrio = iv.phase, p
				}
			}
		}
		bd.Phase[best] += b.Sub(a).Seconds()
	}

	tr.ForEachEvent(func(ev obs.Event) {
		if ev.Kind == "job.retry" {
			bd.FaultLossSec += ev.Value
		}
	})
	return bd
}

func phasePrio(phase string) int {
	if p, ok := phasePriority[phase]; ok {
		return p
	}
	return 1 // unknown span families rank just above "other"
}

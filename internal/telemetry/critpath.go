package telemetry

import (
	"slices"
	"strings"
	"time"

	"cloudviews/internal/obs"
)

// The phase buckets, by position in Phases.
const (
	phaseParse = iota
	phaseBind
	phaseInsights
	phaseOptimize
	phaseQueue
	phaseExecute
	phaseMaterialize
	phaseSeal
	phaseOther
	numPhases
)

// Phases lists the canonical phase buckets in display order. "other" absorbs
// any instant of the trace wall span not covered by a recorded span (e.g. the
// gap between the data-plane timeline and an out-of-band cluster queue span).
var Phases = [numPhases]string{
	phaseParse: "parse", phaseBind: "bind", phaseInsights: "insights",
	phaseOptimize: "optimize", phaseQueue: "queue", phaseExecute: "execute",
	phaseMaterialize: "materialize", phaseSeal: "seal", phaseOther: "other",
}

// phasePriority resolves overlapping spans: when two spans cover the same
// instant, the instant is attributed to the phase doing the most specific
// work. The seal window deliberately ranks below execute/materialize — it
// overlaps the whole post-submit stretch, and only the part not otherwise
// accounted for is "waiting for the seal".
var phasePriority = [numPhases]int{
	phaseMaterialize: 9,
	phaseExecute:     8,
	phaseQueue:       7,
	phaseInsights:    6,
	phaseOptimize:    5,
	phaseBind:        4,
	phaseParse:       3,
	phaseSeal:        2,
	phaseOther:       0,
}

// unknownPhase is the index of a span family outside Phases; it ranks just
// above "other".
const (
	unknownPhase    = -1
	unknownPriority = 1
)

// phaseIndex returns name's position in Phases, or unknownPhase.
func phaseIndex(name string) int {
	for i, p := range Phases {
		if p == name {
			return i
		}
	}
	return unknownPhase
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

// Breakdown is the critical-path attribution of one job trace. Its phases
// sum to WallSec exactly (the sweep attributes every elementary interval of
// the trace's wall span to exactly one phase), which the reconciliation
// property test pins.
type Breakdown struct {
	// WallSec is the trace wall span: latest span end minus earliest span
	// start, in seconds.
	WallSec float64
	// known holds the seconds attributed to each of Phases; unknown, made
	// only when a span family outside Phases gets time, holds the rest.
	known   [numPhases]float64
	unknown map[string]float64
	// FaultLossSec is the simulated time lost to fault recovery recorded on
	// the trace (job-retry backoff + recompile, from job.retry event values).
	FaultLossSec float64
}

// ForEachPhase calls fn for every phase that got time: Phases in order, then
// any other span family, in no particular order.
func (bd *Breakdown) ForEachPhase(fn func(phase string, sec float64)) {
	for i, sec := range bd.known {
		if sec != 0 {
			fn(Phases[i], sec)
		}
	}
	for phase, sec := range bd.unknown {
		fn(phase, sec)
	}
}

// add attributes sec to a phase: an index into Phases, or an unknown
// family by name.
func (bd *Breakdown) add(phase int, family string, sec float64) {
	if phase != unknownPhase {
		bd.known[phase] += sec
		return
	}
	if bd.unknown == nil {
		bd.unknown = make(map[string]float64)
	}
	bd.unknown[family] += sec
}

// Analyze attributes a job trace's wall span to phases. It is a pure
// function of the trace: deterministic, and safe to call on a nil trace
// (returns the zero Breakdown). Over known span families it allocates
// nothing. Reuse decisions are not on the trace; the collector reads them
// from the job's explain recorder.
func Analyze(tr *obs.Trace) Breakdown {
	var bd Breakdown
	if tr == nil {
		return bd
	}
	type interval struct {
		phase      int    // index into Phases, or unknownPhase
		family     string // the phase's name
		prio       int
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
			iv := interval{family: PhaseOf(s.Name), prio: unknownPriority, start: s.Start, end: end}
			if iv.phase = phaseIndex(iv.family); iv.phase != unknownPhase {
				iv.prio = phasePriority[iv.phase]
			}
			ivs = append(ivs, iv)
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
		best := &interval{phase: phaseOther, prio: -1}
		for j := range ivs {
			if iv := &ivs[j]; !iv.start.After(a) && !iv.end.Before(b) && iv.prio > best.prio {
				best = iv
			}
		}
		bd.add(best.phase, best.family, b.Sub(a).Seconds())
	}

	tr.ForEachEvent(func(ev obs.Event) {
		if ev.Kind == "job.retry" {
			bd.FaultLossSec += ev.Value
		}
	})
	return bd
}

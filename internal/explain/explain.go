// Package explain is the reuse-provenance layer: a typed record of every
// "why (not) reused" decision CloudViews makes while compiling and running a
// job. The paper's production experience is dominated by exactly this
// question — operators and customers asking why a given job did or did not
// get computation reuse — so the decision trail is a first-class, closed
// taxonomy rather than free-text trace strings.
//
// The package sits below every layer that makes reuse decisions (optimizer,
// insights, storage, guard, core) and imports only the signature package, so
// all of them can emit Decisions without import cycles. Recorders are
// nil-safe in the obs tradition: a disabled observability stack carries a nil
// recorder and every call costs one branch.
package explain

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cloudviews/internal/signature"
)

// Reason is the closed enum of reuse-decision reasons. Every decision point
// in the system maps onto exactly one of these, and a Decision is the only
// record of it: no trace event restates it.
type Reason string

const (
	// ReasonMatched: a materialized view replaced the subexpression. The
	// only non-miss reason; SavedCS carries the banked container-seconds.
	ReasonMatched Reason = "matched"
	// ReasonNoAnnotation: the subexpression was reuse-eligible but the
	// insights view selection has not picked it (no annotation for its
	// recurring signature).
	ReasonNoAnnotation Reason = "no-annotation"
	// ReasonExpired: a materialized artifact exists but aged out of its
	// retention window.
	ReasonExpired Reason = "expired"
	// ReasonLockHeld: another concurrent job holds the build lock for this
	// view, so this job neither reuses nor builds it.
	ReasonLockHeld Reason = "lock-held"
	// ReasonCost: the view exists and is live, but scanning it costs more
	// than recomputing the subexpression.
	ReasonCost Reason = "cost"
	// ReasonGuardQuarantine: a per-signature circuit breaker has the view
	// quarantined after read fallbacks.
	ReasonGuardQuarantine Reason = "guard-quarantine"
	// ReasonVCKilled: the guard's per-VC kill switch disabled reuse for the
	// whole job.
	ReasonVCKilled Reason = "vc-killed"
	// ReasonPolicyFlight: the multi-level insights controls (service,
	// cluster, VC onboarding, job opt-in) disabled CloudViews for this job.
	ReasonPolicyFlight Reason = "policy-flight"
	// ReasonBudget: the per-job view-build budget (MaxViewsPerJob) was
	// already spent when this candidate came up.
	ReasonBudget Reason = "budget"
	// ReasonFallback: the view was matched at compile time but the read
	// failed at runtime and the executor recomputed the subexpression.
	ReasonFallback Reason = "fallback"
	// ReasonNotMaterialized: the view is selected (or staged) but no sealed
	// artifact exists yet — pending, unsealed, or sealing.
	ReasonNotMaterialized Reason = "not-materialized-yet"
)

// AllReasons lists the closed enum in sorted order (deterministic for
// renderers and tests).
func AllReasons() []Reason {
	return []Reason{
		ReasonBudget,
		ReasonCost,
		ReasonExpired,
		ReasonFallback,
		ReasonGuardQuarantine,
		ReasonLockHeld,
		ReasonMatched,
		ReasonNoAnnotation,
		ReasonNotMaterialized,
		ReasonPolicyFlight,
		ReasonVCKilled,
	}
}

// Valid reports whether r is a member of the closed enum.
func Valid(r Reason) bool {
	switch r {
	case ReasonMatched, ReasonNoAnnotation, ReasonExpired, ReasonLockHeld,
		ReasonCost, ReasonGuardQuarantine, ReasonVCKilled, ReasonPolicyFlight,
		ReasonBudget, ReasonFallback, ReasonNotMaterialized:
		return true
	}
	return false
}

// IsMiss reports whether r represents reuse left on the table (everything
// except a clean match).
func (r Reason) IsMiss() bool { return r != ReasonMatched }

// Outcome classifies what happened to the candidate, one level coarser than
// Reason.
type Outcome string

const (
	// OutcomeReused: the plan scans the materialized view.
	OutcomeReused Outcome = "reused"
	// OutcomeRejected: a specific candidate view was considered and not used.
	OutcomeRejected Outcome = "rejected"
	// OutcomeDisabled: reuse was off for the whole job (no candidates were
	// even enumerated).
	OutcomeDisabled Outcome = "disabled"
	// OutcomeFellBack: reuse was planned but the runtime recomputed.
	OutcomeFellBack Outcome = "fell-back"
)

// OutcomeFor maps a reason onto its outcome class.
func OutcomeFor(r Reason) Outcome {
	switch r {
	case ReasonMatched:
		return OutcomeReused
	case ReasonVCKilled, ReasonPolicyFlight:
		return OutcomeDisabled
	case ReasonFallback:
		return OutcomeFellBack
	default:
		return OutcomeRejected
	}
}

// ReasonForState maps a storage lifecycle state (storage.State's name) onto
// the decision taxonomy: an expired artifact is its own reason, every other
// not-yet-servable state collapses to not-materialized-yet.
func ReasonForState(state string) Reason {
	if state == "expired" {
		return ReasonExpired
	}
	return ReasonNotMaterialized
}

// Decision is one structured reuse decision. Seq orders decisions within a
// job (compile decisions first, runtime fallbacks last), giving renderers a
// deterministic tiebreaker under simulated time.
type Decision struct {
	// Sig is the candidate view's strict signature (empty for whole-job
	// decisions like policy-flight and vc-killed).
	Sig signature.Sig `json:"sig,omitempty"`
	// VC and JobID identify the deciding job.
	VC    string `json:"vc"`
	JobID string `json:"job_id"`
	// Candidate names the subexpression operator the view would replace
	// (empty when unknown or whole-job).
	Candidate string  `json:"candidate,omitempty"`
	Outcome   Outcome `json:"outcome"`
	Reason    Reason  `json:"reason"`
	// SavedCS is the estimated container-seconds at stake: banked on a
	// match, forfeited on a miss (0 when reuse would not have helped or the
	// benefit is unknowable).
	SavedCS float64 `json:"saved_cs,omitempty"`
	// Detail is optional structured context (e.g. "control=vc"). Always a
	// constant or near-constant string: the taxonomy lives in Reason, not
	// here.
	Detail string `json:"detail,omitempty"`
	// Seq is the decision's order within its job, starting at 1.
	Seq int `json:"seq"`
}

// Recorder accumulates one job's decisions. All methods are nil-safe and
// safe for concurrent use; Seq assignment is serialized under the lock so
// per-job ordering is deterministic even when decision points interleave.
type Recorder struct {
	jobID string
	vc    string

	mu        sync.Mutex
	seq       int
	decisions []Decision
}

// NewRecorder builds a recorder for one job.
func NewRecorder(jobID, vc string) *Recorder {
	return &Recorder{jobID: jobID, vc: vc}
}

// Record appends one decision, stamping job identity, outcome, and sequence.
func (r *Recorder) Record(sig signature.Sig, candidate string, reason Reason, savedCS float64, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	r.decisions = append(r.decisions, Decision{
		Sig:       sig,
		VC:        r.vc,
		JobID:     r.jobID,
		Candidate: candidate,
		Outcome:   OutcomeFor(reason),
		Reason:    reason,
		SavedCS:   savedCS,
		Detail:    detail,
		Seq:       r.seq,
	})
	r.mu.Unlock()
}

// Reset discards accumulated decisions (job retry: the recompiled attempt's
// decisions replace the failed attempt's, mirroring how the engine replaces
// the compile result).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq = 0
	r.decisions = r.decisions[:0]
	r.mu.Unlock()
}

// Len reports the number of recorded decisions.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.decisions)
}

// Decisions returns a copy of the recorded decisions in Seq order.
func (r *Recorder) Decisions() []Decision {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Decision(nil), r.decisions...)
}

// ForEach visits each decision in Seq order under the recorder's lock,
// allocating nothing — the telemetry fold path.
func (r *Recorder) ForEach(fn func(Decision)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.decisions {
		fn(d)
	}
}

// RenderDecisions formats a per-job explain report: one line per decision in
// Seq order, then a by-reason rollup with sorted keys. Deterministic for a
// given decision list.
func RenderDecisions(jobID string, ds []Decision) string {
	var b strings.Builder
	fmt.Fprintf(&b, "explain %s: %d decisions\n", jobID, len(ds))
	counts := make(map[Reason]int)
	var forfeit, banked float64
	for _, d := range ds {
		sig := "-"
		if d.Sig != "" {
			sig = d.Sig.Short()
		}
		cand := d.Candidate
		if cand == "" {
			cand = "-"
		}
		detail := d.Detail
		if detail == "" {
			detail = "-"
		}
		fmt.Fprintf(&b, "  %3d  %-9s %-20s sig=%-12s cand=%-10s saved-cs=%8.2f  %s\n",
			d.Seq, d.Outcome, d.Reason, sig, cand, d.SavedCS, detail)
		counts[d.Reason]++
		if d.Reason.IsMiss() {
			if d.SavedCS > 0 {
				forfeit += d.SavedCS
			}
		} else {
			banked += d.SavedCS
		}
	}
	reasons := make([]string, 0, len(counts))
	for r := range counts {
		reasons = append(reasons, string(r))
	}
	sort.Strings(reasons)
	b.WriteString("  by reason:")
	if len(reasons) == 0 {
		b.WriteString(" (none)")
	}
	for _, r := range reasons {
		fmt.Fprintf(&b, " %s=%d", r, counts[Reason(r)])
	}
	fmt.Fprintf(&b, "\n  container-seconds: banked=%.2f forfeited=%.2f\n", banked, forfeit)
	return b.String()
}

// Control-level details for policy-flight decisions: which of the four
// multi-level insights controls (paper §4) disabled reuse. Constant strings
// so the hot reuse-disabled path allocates nothing for details.
const (
	DetailControlService = "control=service"
	DetailControlCluster = "control=cluster"
	DetailControlVC      = "control=vc"
	DetailControlJob     = "control=job"
	DetailNoInsights     = "control=none (no insights service)"
	DetailKillSwitch     = "guard kill switch"
	// DetailSelectedNotBuilt annotates a not-materialized-yet decision where
	// the view is selected but no build has even been staged.
	DetailSelectedNotBuilt = "selected; no artifact yet"
)

// PolicyDetail maps an insights control level ("service", "cluster", "vc",
// "job", or "" for no service at all) to its constant Detail string.
func PolicyDetail(level string) string {
	switch level {
	case "service":
		return DetailControlService
	case "cluster":
		return DetailControlCluster
	case "vc":
		return DetailControlVC
	case "job":
		return DetailControlJob
	}
	return DetailNoInsights
}

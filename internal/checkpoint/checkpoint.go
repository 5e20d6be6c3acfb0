// Package checkpoint applies the CloudViews mechanism to automatic
// checkpoint/restart (paper §5.6): during compilation, query history
// identifies failure-prone operators and a spool is inserted just below them;
// if the job fails and is resubmitted, the checkpointed subexpression is
// reused through the normal view-matching path instead of recomputing from
// the start — "CloudViews can load the last available checkpoint thereby
// avoiding re-computation".
package checkpoint

import (
	"sort"
	"sync"

	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

// FailureStats tracks observed failure rates per operator type, the "query
// history to find which operators are more likely to fail" of Phoebe [50].
type FailureStats struct {
	mu       sync.Mutex
	attempts map[string]int64
	failures map[string]int64
}

// NewFailureStats creates an empty failure history.
func NewFailureStats() *FailureStats {
	return &FailureStats{attempts: make(map[string]int64), failures: make(map[string]int64)}
}

// Observe records one operator execution attempt.
func (f *FailureStats) Observe(op string, failed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempts[op]++
	if failed {
		f.failures[op]++
	}
}

// Rate returns the observed failure probability of the operator type; zero
// when it has never been seen.
func (f *FailureStats) Rate(op string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	a := f.attempts[op]
	if a == 0 {
		return 0
	}
	return float64(f.failures[op]) / float64(a)
}

// Policy configures checkpoint placement.
type Policy struct {
	// MaxCheckpoints bounds the spools added per job (default 2).
	MaxCheckpoints int
	// MinFailureRate is the rate above which an operator is considered
	// failure-prone (default 0.05).
	MinFailureRate float64
	// MinSubtreeNodes avoids checkpointing trivially cheap subtrees
	// (default 2).
	MinSubtreeNodes int
}

func (p Policy) maxCheckpoints() int {
	if p.MaxCheckpoints <= 0 {
		return 2
	}
	return p.MaxCheckpoints
}

func (p Policy) minRate() float64 {
	if p.MinFailureRate <= 0 {
		return 0.05
	}
	return p.MinFailureRate
}

func (p Policy) minNodes() int {
	if p.MinSubtreeNodes <= 0 {
		return 2
	}
	return p.MinSubtreeNodes
}

// Placement describes one inserted checkpoint.
type Placement struct {
	Strict signature.Sig
	Below  string // the failure-prone operator above the checkpoint
	Path   string
}

// Instrument inserts checkpoints below failure-prone operators: for each
// eligible child subtree of a risky operator, a Spool writes the intermediate
// result. Returns the instrumented plan and the placements.
func Instrument(root plan.Node, signer *signature.Signer, stats *FailureStats, store storage.Engine, vc string, policy Policy) (plan.Node, []Placement) {
	subs := signer.Subexpressions(root)
	info := make(map[plan.Node]signature.Subexpr, len(subs))
	for _, s := range subs {
		info[s.Node] = s
	}

	// Rank risky operators by observed failure rate.
	type candidate struct {
		child plan.Node
		sub   signature.Subexpr
		above string
		rate  float64
		path  string
	}
	var cands []candidate
	plan.Walk(root, func(n plan.Node) {
		rate := stats.Rate(n.OpName())
		if rate < policy.minRate() {
			return
		}
		var buf [2]plan.Node
		for _, c := range plan.Inputs(n, &buf) {
			s, ok := info[c]
			if !ok || s.Eligibility != signature.EligibleOK || s.NodeCount < policy.minNodes() {
				continue
			}
			cands = append(cands, candidate{child: c, sub: s, above: n.OpName(), rate: rate})
		}
	})
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].rate != cands[j].rate {
			return cands[i].rate > cands[j].rate
		}
		return cands[i].sub.Strict < cands[j].sub.Strict
	})

	chosen := make(map[plan.Node]candidate)
	var placements []Placement
	for _, c := range cands {
		if len(chosen) >= policy.maxCheckpoints() {
			break
		}
		if _, dup := chosen[c.child]; dup {
			continue
		}
		if _, st := store.Status(c.sub.Strict); st.Servable() || st.Building() {
			continue // already checkpointed by a previous attempt
		}
		// Derive the artifact path exactly once and thread it everywhere the
		// checkpoint is referenced: the staged store entry, the placement, and
		// the Spool below. Re-deriving at each site silently diverges the
		// moment path derivation becomes stateful (e.g. per-incarnation
		// generations after a purge).
		c.path = "checkpoints/" + vc + "/" + c.sub.Strict.Short() + ".cp"
		chosen[c.child] = c
		store.Stage(c.sub.Strict, c.sub.Recurring, c.path, vc)
		placements = append(placements, Placement{Strict: c.sub.Strict, Below: c.above, Path: c.path})
	}
	if len(chosen) == 0 {
		return root, nil
	}

	instrumented := plan.Rewrite(root, func(n plan.Node) plan.Node {
		if c, ok := chosen[n]; ok {
			return &plan.Spool{Child: n, StrictSig: string(c.sub.Strict), Path: c.path}
		}
		return n
	})
	return instrumented, placements
}

// Recover rewrites a resubmitted plan to load available checkpoints: any
// subexpression whose strict signature has a sealed checkpoint becomes a
// ViewScan, top-down (largest first) — exactly the reuse machinery, pointed
// at recovery artifacts.
func Recover(root plan.Node, signer *signature.Signer, store storage.Engine) (plan.Node, int) {
	subs := signer.Subexpressions(root)
	info := make(map[plan.Node]signature.Subexpr, len(subs))
	for _, s := range subs {
		info[s.Node] = s
	}
	recovered := 0
	var rec func(n plan.Node) plan.Node
	rec = func(n plan.Node) plan.Node {
		if s, ok := info[n]; ok && s.Eligibility == signature.EligibleOK {
			if v, st := store.Status(s.Strict); st.Servable() {
				recovered++
				return &plan.ViewScan{
					StrictSig:    string(s.Strict),
					RecurringSig: string(s.Recurring),
					Path:         v.Path,
					Out:          n.Schema(),
					Rows:         v.Rows,
					Bytes:        v.Bytes,
					ReplacedOp:   n.OpName(),
					Fallback:     n,
				}
			}
		}
		return plan.MapInputs(n, rec)
	}
	out := rec(root)
	return out, recovered
}

// Package signature computes the subexpression signatures at the heart of
// CloudViews. A *strict* signature uniquely identifies a logical
// subexpression instance including its inputs (dataset version GUIDs) and
// bound parameter values: two plans with equal strict signatures compute
// byte-identical results, so view matching is a hash-equality check. A
// *recurring* signature discards the time-varying attributes (GUIDs and
// parameter values) and therefore stays stable across instances of a
// recurring job, which is what workload analysis selects on.
//
// Signatures incorporate the engine runtime version: when the optimizer
// representation changes, all signatures change and all materialized views
// are invalidated, exactly the operational behaviour §4 of the paper
// describes ("Impact of changed signatures").
package signature

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"cloudviews/internal/plan"
)

// Sig is a hex-encoded signature hash.
type Sig string

// Short returns a 12-character prefix for display.
func (s Sig) Short() string {
	if len(s) <= 12 {
		return string(s)
	}
	return string(s[:12])
}

// Tag groups the signatures relevant to one recurring job, used by the
// insights service index ("generate tags for each of the signatures that help
// fetch relevant signatures for a given SCOPE job").
type Tag string

// Eligibility classifies whether a subexpression may participate in reuse.
type Eligibility uint8

const (
	// EligibleOK: the subexpression may be materialized and reused.
	EligibleOK Eligibility = iota
	// IneligibleTrivial: bare scans and other free computations; nothing to save.
	IneligibleTrivial
	// IneligibleNondetUDO: subtree contains a UDO with by-design
	// non-determinism (DateTime.Now, Guid.NewGuid, ...).
	IneligibleNondetUDO
	// IneligibleNondetFunc: a scalar expression calls a non-deterministic builtin.
	IneligibleNondetFunc
	// IneligibleDeepDeps: the UDO library dependency chain is too deep to
	// traverse safely at compile time.
	IneligibleDeepDeps
	// IneligibleOutput: Output roots are job boundaries, never views.
	IneligibleOutput
)

// String names the eligibility class.
func (e Eligibility) String() string {
	switch e {
	case EligibleOK:
		return "ok"
	case IneligibleTrivial:
		return "trivial"
	case IneligibleNondetUDO:
		return "nondeterministic-udo"
	case IneligibleNondetFunc:
		return "nondeterministic-func"
	case IneligibleDeepDeps:
		return "deep-dependency-chain"
	case IneligibleOutput:
		return "output-boundary"
	default:
		return fmt.Sprintf("eligibility(%d)", uint8(e))
	}
}

// Subexpr describes one subexpression of a plan with both signatures.
type Subexpr struct {
	Node        plan.Node
	Strict      Sig
	Recurring   Sig
	Op          string
	Height      int // leaf = 1
	NodeCount   int
	Eligibility Eligibility
	// InputDatasets is the sorted set of base datasets under this node, used
	// by the generalized-reuse analysis (Figure 8).
	InputDatasets []string
	// Parent is the index (within the enumeration) of this subexpression's
	// parent operator, or -1 for the root. Selection algorithms use it to
	// discount nested candidates.
	Parent int
}

// Signer computes signatures with a fixed engine version.
type Signer struct {
	// EngineVersion is folded into every hash; bumping it invalidates all
	// previously materialized views.
	EngineVersion string
}

// maxUDODepDepth bounds the library dependency chain the signer is willing to
// traverse; deeper chains make the subexpression ineligible.
const maxUDODepDepth = 8

// hash is sha256 over "v=<version>\0part\0part…\0input\0input…" — a node's own
// parts, then its inputs' signatures — cut to 16 bytes, in hex. The bytes are
// assembled on the stack (past 512 they spill) and no argument is retained:
// a signature allocates its string and nothing else.
func (s *Signer) hash(inputs []Sig, parts ...string) Sig {
	var stack [512]byte
	buf := append(append(stack[:0], "v="...), s.EngineVersion...)
	for _, p := range parts {
		buf = append(append(buf, 0), p...)
	}
	return sum(buf, inputs)
}

// sum appends the inputs to buf and hashes it.
func sum(buf []byte, inputs []Sig) Sig {
	for _, in := range inputs {
		buf = append(append(buf, 0), in...)
	}
	h := sha256.Sum256(buf)
	var hexed [32]byte
	hex.Encode(hexed[:], h[:16])
	return Sig(hexed[:])
}

// nodeSig is an operator's signature over its inputs' signatures: the hash of
// "op=<name>" and "attrs=<attributes>", where the attributes are attrs if it
// is not empty and n rendered straight into the hash's stack buffer (by
// plan.AppendAttrs) if it is, so signing a node allocates its Sig alone.
func (s *Signer) nodeSig(n plan.Node, recurring bool, attrs string, inputs []Sig) Sig {
	var stack [512]byte
	buf := append(append(stack[:0], "v="...), s.EngineVersion...)
	buf = append(append(append(buf, "\x00op="...), n.OpName()...), "\x00attrs="...)
	if attrs != "" {
		buf = append(buf, attrs...)
	} else {
		buf = plan.AppendAttrs(buf, n, recurring)
	}
	return sum(buf, inputs)
}

// StrictOf is n's strict signature over its inputs' strict signatures
// (ViewScan and Spool: see Sign). attrs is n's strict attribute rendering
// (plan.AppendAttrs), which a caller that knows it cannot have changed keeps
// and signs from again (see optimizer.Derive), or "" to render n.
func (s *Signer) StrictOf(n plan.Node, attrs string, inputs []Sig) Sig {
	return s.nodeSig(n, false, attrs, inputs)
}

// Strict computes the strict signature of a plan subtree.
func (s *Signer) Strict(n plan.Node) Sig { return s.top(n).Strict }

// Recurring computes the recurring signature of a plan subtree.
func (s *Signer) Recurring(n plan.Node) Sig { return s.top(n).Recurring }

// top is the last entry of n's enumeration: n's own, or a Spool's child's.
func (s *Signer) top(n plan.Node) Subexpr {
	subs := s.Sign(n, nil, nil)
	return subs[len(subs)-1]
}

// JobTag derives the tag for a job plan: the recurring signature of its root.
// The root must be normalized (optimizer.Rewrite): annotations are published
// under the tag of the plan optimizer.Prepare rewrites, and a bound root that
// normalization reorders has another.
func (s *Signer) JobTag(root plan.Node) Tag {
	return TagForTemplate(s.Recurring(root))
}

// TagForTemplate builds the insights tag for a job template (recurring root)
// signature; workload analysis uses it to publish annotations where the
// compiler will look for them.
func TagForTemplate(template Sig) Tag {
	return Tag("tag-" + template.Short())
}

// InputPos returns the position in subs of input k of the node at position i:
// i-1 for its last input, and for the first of two the position before the
// second's whole subtree (a node of two inputs counts more than one node
// beyond its last). subs is a plan's enumeration in post-order: a Spool has
// no entry, so an input that is a Spool is found at its child's position.
func InputPos(subs []Subexpr, i, k int) int {
	c := i - 1
	if k == 0 && subs[c].NodeCount < subs[i].NodeCount-1 {
		c -= subs[c].NodeCount
	}
	return c
}

// Physical maps every keyed node to its result-cache key (see Sign). Only
// benchmark/probe.go reads it; it leaves with ROADMAP item 1(a).
func (s *Signer) Physical(root plan.Node) map[plan.Node]Sig {
	keys := make(map[plan.Node]Sig, plan.CountNodes(root))
	s.Sign(root, nil, func(n plan.Node, _ int, k Sig) { keys[n] = k })
	return keys
}

// Subexpressions enumerates every subexpression of the plan (see Sign).
func (s *Signer) Subexpressions(root plan.Node) []Subexpr {
	return s.Sign(root, nil, nil)
}

// signed is what Sign passes from a node up to its parent.
type signed struct {
	strict, recur Sig
	height, count int
	datasets      []string
	elig          Eligibility // propagated upward: the most specific reason
	idx           int         // the node's entry
	key           Sig         // "" for none
	view          bool        // a ViewScan sits at or below the node
	spool         bool        // a Spool sits at or below the node: it has no key
	nondet        bool        // a non-deterministic node sits at or below the node: it has no key
}

// Sign enumerates every subexpression of the plan bottom-up (post-order), with
// both signatures and its eligibility, and computes every node's result-cache
// key, in one walk.
//
// Two operators stand for others. A Spool is transparent: it has no entry, and
// its child's signatures are its own, because materializing a subexpression
// must not change its identity, or the first job's own plan would stop
// matching. A ViewScan stands for the subexpression it replaced: its entry
// carries that subexpression's signatures, so ancestor signatures are
// rewrite-stable.
//
// The result-cache key is the identity under which the executor stores a
// subtree's table and accounting and replays them into another job. Sign
// hands key, when it is not nil, every keyed node with its position (its
// entry's index; a Spool has none) and its key; a node with no key is never
// handed over.
//   - A node with no ViewScan or Spool at or below it is keyed by its strict
//     signature: its subtree executes exactly the operators the signature
//     hashes.
//   - A ViewScan (over its StrictSig) and every node above one (over its
//     strict signature and its inputs' keys, strings the walk holds) are keyed
//     in a domain of their own ("phys-op="): a plan that reads a view must
//     never replay the accounting of the plan that computed it, nor the other
//     way round.
//   - A Spool and every node above one have no key: a replay would skip the
//     view write and leave a staged view that never materializes. The Spool's
//     child keeps its own, so a replayed build stays cheap.
//   - A non-deterministic node — a non-deterministic UDO, an expression
//     calling a non-deterministic builtin, a sort by one — and every node
//     above one have no key: a replay would hand one job's clock or random
//     draws to another. The node is judged on its own, whatever made its
//     inputs ineligible.
//
// prepared, when not nil, is the enumeration (see InputPos) of the plan root
// was derived from by substituting ViewScans and Spools and rebuilding what
// is above them. Each node's position in it is carried down from the root: a
// Spool passes its own to its child, a ViewScan stands for the one it
// replaced. A node takes its entry's signatures and eligibility without
// rendering or hashing, and its InputDatasets unless a ViewScan sits at or
// below it; only a node on or above a ViewScan hashes its key. With prepared
// nil every node is signed afresh, rendered into its hash's stack buffer.
func (s *Signer) Sign(root plan.Node, prepared []Subexpr, key func(n plan.Node, pos int, k Sig)) []Subexpr {
	out := make([]Subexpr, 0, plan.CountNodes(root))
	var rec func(n plan.Node, at int) signed // at: n's position in prepared
	rec = func(n plan.Node, at int) signed {
		switch x := n.(type) {
		case *plan.Spool:
			r := rec(x.Child, at)
			r.key, r.spool = "", true
			return r
		case *plan.ViewScan:
			out = append(out, Subexpr{
				Node:        x,
				Strict:      Sig(x.StrictSig),
				Recurring:   Sig(x.RecurringSig),
				Op:          "ViewScan",
				Height:      1,
				NodeCount:   1,
				Eligibility: IneligibleTrivial,
				Parent:      -1,
			})
			r := signed{strict: Sig(x.StrictSig), recur: Sig(x.RecurringSig), height: 1, count: 1, elig: EligibleOK, idx: len(out) - 1, view: true}
			if key != nil {
				r.key = s.hash(nil, "phys-op=ViewScan", x.StrictSig)
				key(n, r.idx, r.key)
			}
			return r
		}
		var k *Subexpr
		if prepared != nil {
			k = &prepared[at]
		}
		var strictBuf, recurBuf, keyBuf [2]Sig
		strictIn, recurIn, keyIn := strictBuf[:0], recurBuf[:0], keyBuf[:0]
		r := signed{height: 1, count: 1, datasets: []string{}, elig: EligibleOK}
		var idxBuf [2]int
		childIdx := idxBuf[:0]
		var dsBuf [2][]string
		childDatasets := dsBuf[:0]
		var buf [2]plan.Node
		for i, c := range plan.Inputs(n, &buf) {
			ci := -1
			if k != nil {
				ci = InputPos(prepared, at, i)
			}
			cr := rec(c, ci)
			if k == nil {
				strictIn, recurIn = append(strictIn, cr.strict), append(recurIn, cr.recur)
			}
			keyIn, childIdx = append(keyIn, cr.key), append(childIdx, cr.idx)
			childDatasets = append(childDatasets, cr.datasets)
			if cr.height+1 > r.height {
				r.height = cr.height + 1
			}
			r.count += cr.count
			if cr.elig != EligibleOK {
				r.elig = cr.elig
			}
			r.view, r.spool, r.nondet = r.view || cr.view, r.spool || cr.spool, r.nondet || cr.nondet
		}
		// The node's own verdict. A carried entry holds it when the inputs are
		// eligible, and theirs otherwise. Under ineligible inputs the verdict
		// can only take the key, so it is not needed once a non-deterministic
		// node below has taken it.
		own := EligibleOK
		switch {
		case k != nil && r.elig == EligibleOK:
			own = k.Eligibility
		case r.elig == EligibleOK || !r.nondet:
			own = s.nodeEligibility(n)
		}
		r.nondet = r.nondet || own == IneligibleNondetUDO || own == IneligibleNondetFunc || randomOrder(n)
		// The most specific input reason survives; Trivial and Output judge
		// the node itself, not what it passes up.
		if r.elig == EligibleOK && own != IneligibleTrivial && own != IneligibleOutput {
			r.elig = own
		}
		if k == nil {
			r.strict = s.nodeSig(n, false, "", strictIn)
			r.recur = s.nodeSig(n, true, "", recurIn)
		} else {
			r.strict, r.recur = k.Strict, k.Recurring
		}
		// A carried node reads the datasets its entry lists, unless a ViewScan
		// at or below it reads a view in their place.
		if sc, ok := n.(*plan.Scan); k != nil && !r.view {
			r.datasets = k.InputDatasets
		} else if ok {
			r.datasets = []string{sc.Dataset}
		} else {
			for _, ds := range childDatasets {
				r.datasets = unionSorted(r.datasets, ds)
			}
		}

		nodeElig := r.elig
		switch n.(type) {
		case *plan.Scan:
			// A bare scan is never worth materializing on its own.
			nodeElig = IneligibleTrivial
		case *plan.Output:
			nodeElig = IneligibleOutput
		}
		if nodeElig == IneligibleTrivial && r.elig != EligibleOK {
			nodeElig = r.elig
		}

		out = append(out, Subexpr{
			Node:          n,
			Strict:        r.strict,
			Recurring:     r.recur,
			Op:            n.OpName(),
			Height:        r.height,
			NodeCount:     r.count,
			Eligibility:   nodeElig,
			InputDatasets: r.datasets,
			Parent:        -1,
		})
		r.idx = len(out) - 1
		for _, ci := range childIdx {
			out[ci].Parent = r.idx
		}
		if key != nil && !r.spool && !r.nondet {
			r.key = r.strict
			if r.view {
				r.key = s.hash(keyIn, "phys-op="+n.OpName(), string(r.strict))
			}
			key(n, r.idx, r.key)
		}
		return r
	}
	rec(root, len(prepared)-1)
	return out
}

// unionSorted merges two sorted, duplicate-free lists. The result may share
// either input: dataset lists are never written after they are built.
func unionSorted(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]string, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case a[0] > b[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// randomOrder reports whether n is a Sort by a non-deterministic key. Its
// eligibility does not say so (nodeEligibility), but its order is a draw.
func randomOrder(n plan.Node) bool {
	if x, ok := n.(*plan.Sort); ok {
		for _, k := range x.Keys {
			if plan.HasNondeterminism(k) {
				return true
			}
		}
	}
	return false
}

// nodeEligibility checks reuse hazards local to one operator.
func (s *Signer) nodeEligibility(n plan.Node) Eligibility {
	switch x := n.(type) {
	case *plan.UDO:
		if x.Nondet {
			return IneligibleNondetUDO
		}
		if impl, ok := plan.LookupUDO(x.Name); ok && !impl.Deterministic {
			return IneligibleNondetUDO
		}
		depth, ok := DependencyDepth(x.Depends, maxUDODepDepth)
		if !ok || depth > maxUDODepDepth {
			return IneligibleDeepDeps
		}
	case *plan.Sort:
		// Sort keys are not a hazard checked here: doing so would move
		// eligibility, and with it which views exist.
		return EligibleOK
	}
	var buf [8]plan.Expr
	for _, e := range plan.Exprs(n, buf[:0]) {
		if plan.HasNondeterminism(e) {
			return IneligibleNondetFunc
		}
	}
	return EligibleOK
}

// ---------------------------------------------------------------------------
// Library dependency registry (for UDO dependency chains).

var (
	libMu   sync.RWMutex
	libDeps = map[string][]string{}
)

// RegisterLibrary declares a library and its direct dependencies. Re-
// registering replaces the previous entry.
func RegisterLibrary(name string, deps ...string) {
	libMu.Lock()
	defer libMu.Unlock()
	libDeps[strings.ToLower(name)] = append([]string(nil), deps...)
}

// ResetLibraries clears the registry (test hook).
func ResetLibraries() {
	libMu.Lock()
	defer libMu.Unlock()
	libDeps = map[string][]string{}
}

// DependencyDepth computes the maximum dependency-chain depth reachable from
// the given libraries. A direct dependency list of depth 1 means "uses libs
// with no further deps". The traversal aborts (ok=false) when it exceeds
// limit — modeling the paper's "traversing these long chains could slow down
// the entire compilation" policy — or when a cycle is detected.
func DependencyDepth(libs []string, limit int) (depth int, ok bool) {
	libMu.RLock()
	defer libMu.RUnlock()
	var visit func(lib string, seen map[string]bool, d int) (int, bool)
	visit = func(lib string, seen map[string]bool, d int) (int, bool) {
		if d > limit {
			return d, false
		}
		key := strings.ToLower(lib)
		if seen[key] {
			return d, false // cycle: bail out conservatively
		}
		seen[key] = true
		defer delete(seen, key)
		maxD := d
		for _, dep := range libDeps[key] {
			dd, okc := visit(dep, seen, d+1)
			if !okc {
				return dd, false
			}
			if dd > maxD {
				maxD = dd
			}
		}
		return maxD, true
	}
	maxDepth := 0
	for _, lib := range libs {
		d, okc := visit(lib, map[string]bool{}, 1)
		if !okc {
			return d, false
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	return maxDepth, true
}

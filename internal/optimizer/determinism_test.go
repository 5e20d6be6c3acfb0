package optimizer_test

import (
	"testing"

	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
)

// TestCompileDeterminism: with reuse disabled (the pure path — enabled
// compiles intentionally mutate lock/store state), compiling the same plan
// twice must produce byte-identical plans, signatures, and estimates.
func TestCompileDeterminism(t *testing.T) {
	r := newRig(t)
	root := r.bind(t, sharedQuery)
	r.publishFor(t, root, func(s signature.Subexpr) bool { return s.Op == "Join" })

	opts := optimizer.CompileOptions{JobID: "same", Cluster: "c1", VC: "vc1", OptIn: false}
	a := r.opt.Compile(root, opts)
	b := r.opt.Compile(root, opts)
	if plan.Format(a.Plan) != plan.Format(b.Plan) {
		t.Errorf("plans differ:\n%s\n%s", plan.Format(a.Plan), plan.Format(b.Plan))
	}
	if a.Tag != b.Tag {
		t.Errorf("tags differ: %s vs %s", a.Tag, b.Tag)
	}
	sigsOf := func(cr *optimizer.CompileResult) map[string]bool {
		out := map[string]bool{}
		for _, s := range cr.Subs {
			out[string(s.Strict)] = true
		}
		return out
	}
	sa, sb := sigsOf(a), sigsOf(b)
	if len(sa) != len(sb) {
		t.Fatalf("signature sets differ in size: %d vs %d", len(sa), len(sb))
	}
	for k := range sa {
		if !sb[k] {
			t.Fatalf("signature %s missing from second compile", k[:12])
		}
	}
}

// TestRewriteIdempotent: the rewrite pipeline must be a fixpoint.
func TestRewriteIdempotent(t *testing.T) {
	r := newRig(t)
	queries := []string{
		sharedQuery,
		`SELECT Name FROM (SELECT * FROM Customer) AS c WHERE MktSegment = 'Asia' AND Id > 50`,
		`SELECT Brand, COUNT(*) AS n FROM Sales JOIN Parts ON Sales.PartId = Parts.PartId WHERE Quantity > 2 GROUP BY Brand`,
	}
	for _, q := range queries {
		once := optimizer.Rewrite(r.bind(t, q))
		twice := optimizer.Rewrite(once)
		if plan.Format(once) != plan.Format(twice) {
			t.Errorf("rewrite not idempotent for %q:\n%s\n%s", q, plan.Format(once), plan.Format(twice))
		}
	}
}

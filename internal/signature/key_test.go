package signature_test

import (
	"testing"

	"cloudviews/internal/catalog"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/workload"
)

// generatorRoots binds every job of the workload generator's first day, as
// optimizer.Prepare rewrites it. Runs of one template differ in the value of
// their @runStart, so their private subtrees share recurring signatures and
// not strict ones.
func generatorRoots(t *testing.T) []plan.Node {
	t.Helper()
	p := workload.DefaultProfile("keys")
	p.Pipelines, p.RowsPerRawDay = 24, 80
	cat := catalog.New()
	gen := workload.NewGenerator(cat, p)
	if err := gen.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	var roots []plan.Node
	for _, in := range gen.JobsForDay(1) {
		script, err := sqlparser.Parse(in.Script)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := (&plan.Binder{Catalog: cat, Params: in.Params}).BindScript(script)
		if err != nil || len(outs) != 1 {
			t.Fatalf("bind %s: %d outputs, %v", in.ID, len(outs), err)
		}
		roots = append(roots, optimizer.Rewrite(outs[0]))
	}
	return roots
}

// TestResultCacheKeysMatchReference: the result cache keys a node by its
// strict signature below any ViewScan or Spool, and yet hits and misses
// exactly as when it keyed on a physical signature family of its own. Over
// two corpora — the substitution matrix's plans, and the generator's day of
// jobs put through the same matrix — two nodes have equal keys exactly when
// their reference physical signatures are equal, no node at or above a Spool
// has a key, and a node has none exactly when the reference has none: at or
// above a non-deterministic node.
func TestResultCacheKeysMatchReference(t *testing.T) {
	matrixLibraries(t)
	var matrix []plan.Node
	for _, q := range matrixQueries {
		matrix = append(matrix, matrixRoot(t, q))
	}
	for _, corpus := range []struct {
		name  string
		roots []plan.Node
	}{{"matrix", matrix}, {"generator", generatorRoots(t)}} {
		byKey, byRef := map[signature.Sig]signature.Sig{}, map[signature.Sig]signature.Sig{}
		plans, keyed, viewed, spooled, drawn := 0, 0, 0, 0, 0
		for _, root := range corpus.roots {
			substitutions(root, func(op string, derived plan.Node, _ []signature.Subexpr) {
				plans++
				keys, refs := signer.Physical(derived), signature.ReferencePhysical(signer, derived)
				here := 0
				// check reports whether n or a node below it is a Spool, and
				// whether a ViewScan is.
				var check func(n plan.Node) (spool, view bool)
				check = func(n plan.Node) (spool, view bool) {
					switch n.(type) {
					case *plan.Spool:
						spool = true
					case *plan.ViewScan:
						view = true
					}
					var buf [2]plan.Node
					for _, c := range plan.Inputs(n, &buf) {
						s, v := check(c)
						spool, view = spool || s, view || v
					}
					key, has := keys[n]
					ref, refHas := refs[n]
					switch {
					case !refHas:
						drawn++
						if has {
							t.Fatalf("%s, %s substituted: %s at or above a non-deterministic node has key %s", corpus.name, op, n.OpName(), key)
						}
						return
					case spool:
						spooled++
						if has {
							t.Fatalf("%s, %s substituted: %s at or above a Spool has key %s", corpus.name, op, n.OpName(), key)
						}
						return
					case !has:
						t.Fatalf("%s, %s substituted: %s has no key", corpus.name, op, n.OpName())
					}
					keyed, here = keyed+1, here+1
					if view {
						viewed++
					}
					if r, seen := byKey[key]; seen && r != ref {
						t.Fatalf("%s, %s substituted: %s shares key %s with a node whose reference signature is %s, not %s", corpus.name, op, n.OpName(), key, r, ref)
					}
					if k, seen := byRef[ref]; seen && k != key {
						t.Fatalf("%s, %s substituted: %s has key %s, a node with its reference signature %s has %s", corpus.name, op, n.OpName(), key, ref, k)
					}
					byKey[key], byRef[ref] = ref, key
					return
				}
				check(derived)
				if len(keys) != here {
					t.Fatalf("%s, %s substituted: %d keys for %d keyed nodes", corpus.name, op, len(keys), here)
				}
			})
		}
		t.Logf("%s: %d plans, %d keyed nodes (%d on or above a ViewScan) under %d keys, %d nodes at or above a Spool, %d at or above a non-deterministic node",
			corpus.name, plans, keyed, viewed, len(byKey), spooled, drawn)
		// The generator's first day runs no non-deterministic job.
		if viewed == 0 || spooled == 0 || len(byKey) == keyed || corpus.name == "matrix" && drawn == 0 {
			t.Fatalf("%s: vacuous", corpus.name)
		}
	}
}

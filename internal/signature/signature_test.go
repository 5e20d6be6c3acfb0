package signature_test

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"cloudviews/internal/data"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
)

func bindQuery(t *testing.T, src string, params map[string]data.Value) plan.Node {
	t.Helper()
	cat, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	b := &plan.Binder{Catalog: cat, Params: params}
	n, err := b.BindQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return plan.NormalizeNode(n)
}

var signer = &signature.Signer{EngineVersion: "test-1"}

func TestStrictDeterministic(t *testing.T) {
	src := `SELECT CustomerId, AVG(Price) AS p FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id WHERE MktSegment = 'Asia' GROUP BY CustomerId`
	a := bindQuery(t, src, nil)
	b := bindQuery(t, src, nil)
	if signer.Strict(a) != signer.Strict(b) {
		t.Error("identical plans must have identical strict signatures")
	}
}

func TestStrictSensitiveToPredicate(t *testing.T) {
	a := bindQuery(t, `SELECT Name FROM Customer WHERE MktSegment = 'Asia'`, nil)
	b := bindQuery(t, `SELECT Name FROM Customer WHERE MktSegment = 'Europe'`, nil)
	if signer.Strict(a) == signer.Strict(b) {
		t.Error("different predicates must differ")
	}
}

func TestNormalizationWidensMatching(t *testing.T) {
	a := bindQuery(t, `SELECT Name FROM Customer WHERE MktSegment = 'Asia' AND Id > 5`, nil)
	b := bindQuery(t, `SELECT Name FROM Customer WHERE Id > 5 AND MktSegment = 'Asia'`, nil)
	if signer.Strict(a) != signer.Strict(b) {
		t.Error("conjunct order should not affect signatures")
	}
	c := bindQuery(t, `SELECT Name FROM Customer WHERE 5 < Id AND 'Asia' = MktSegment`, nil)
	if signer.Strict(a) != signer.Strict(c) {
		t.Error("flipped comparisons should not affect signatures")
	}
}

func TestRecurringDiscardsParams(t *testing.T) {
	for _, src := range []string{
		`SELECT Name FROM Customer WHERE MktSegment = @seg`,
		`SELECT Name FROM Customer WHERE NOT (MktSegment = @seg)`,
	} {
		a := bindQuery(t, src, map[string]data.Value{"seg": data.String_("Asia")})
		b := bindQuery(t, src, map[string]data.Value{"seg": data.String_("Europe")})
		if signer.Strict(a) == signer.Strict(b) {
			t.Errorf("%s: strict must include parameter values", src)
		}
		if signer.Recurring(a) != signer.Recurring(b) {
			t.Errorf("%s: recurring must discard parameter values", src)
		}
	}
}

func TestRecurringDiscardsGUIDs(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	parse := func() plan.Node {
		q, _ := sqlparser.ParseQuery(`SELECT Name FROM Customer WHERE MktSegment = 'Asia'`)
		b := &plan.Binder{Catalog: cat}
		n, err := b.BindQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		return plan.NormalizeNode(n)
	}
	before := parse()
	// Bulk update Customer: new GUID.
	ds, _ := cat.Dataset("Customer")
	tbl := data.NewTable(ds.Schema)
	tbl.Append(data.Row{data.Int(1), data.String_("x"), data.String_("Asia")})
	if _, err := cat.BulkUpdate("Customer", fixtures.Epoch.AddDate(0, 0, 1), tbl); err != nil {
		t.Fatal(err)
	}
	after := parse()
	if signer.Strict(before) == signer.Strict(after) {
		t.Error("strict must change when the input version changes")
	}
	if signer.Recurring(before) != signer.Recurring(after) {
		t.Error("recurring must survive bulk updates")
	}
}

func TestEngineVersionInvalidatesSignatures(t *testing.T) {
	n := bindQuery(t, `SELECT Name FROM Customer WHERE MktSegment = 'Asia'`, nil)
	s1 := &signature.Signer{EngineVersion: "v1"}
	s2 := &signature.Signer{EngineVersion: "v2"}
	if s1.Strict(n) == s2.Strict(n) {
		t.Error("runtime version bump must change all signatures")
	}
}

func TestSpoolTransparent(t *testing.T) {
	n := bindQuery(t, `SELECT Name FROM Customer WHERE MktSegment = 'Asia'`, nil)
	spooled := &plan.Spool{Child: n}
	if signer.Strict(n) != signer.Strict(spooled) {
		t.Error("Spool must be signature-transparent")
	}
}

func TestSubexpressionsEnumeration(t *testing.T) {
	n := bindQuery(t, `SELECT CustomerId, AVG(Price) AS p FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id WHERE MktSegment = 'Asia' GROUP BY CustomerId`, nil)
	subs := signer.Subexpressions(n)
	if len(subs) != plan.CountNodes(n) {
		t.Fatalf("subexpr count %d != node count %d", len(subs), plan.CountNodes(n))
	}
	// Root is last (post-order) and must have the full plan's signature.
	root := subs[len(subs)-1]
	if root.Strict != signer.Strict(n) {
		t.Error("root subexpression strict mismatch")
	}
	if root.NodeCount != plan.CountNodes(n) {
		t.Errorf("root NodeCount = %d, want %d", root.NodeCount, plan.CountNodes(n))
	}
	// Scans must be marked trivial; the join subtree eligible.
	var sawTrivialScan, sawEligibleJoin bool
	for _, s := range subs {
		if s.Op == "Scan" && s.Eligibility == signature.IneligibleTrivial {
			sawTrivialScan = true
		}
		if s.Op == "Join" && s.Eligibility == signature.EligibleOK {
			sawEligibleJoin = true
			if len(s.InputDatasets) != 2 {
				t.Errorf("join InputDatasets = %v", s.InputDatasets)
			}
		}
	}
	if !sawTrivialScan || !sawEligibleJoin {
		t.Errorf("eligibility classification wrong: trivialScan=%v eligibleJoin=%v", sawTrivialScan, sawEligibleJoin)
	}
}

func TestNondeterminismIneligible(t *testing.T) {
	n := bindQuery(t, `SELECT Name FROM Customer WHERE RANDOM() < 0.5`, nil)
	subs := signer.Subexpressions(n)
	root := subs[len(subs)-1]
	if root.Eligibility != signature.IneligibleNondetFunc {
		t.Errorf("eligibility = %v, want nondeterministic-func", root.Eligibility)
	}
}

func TestNondetUDOIneligiblePropagates(t *testing.T) {
	n := bindQuery(t, `SELECT ingest_time FROM (PROCESS (SELECT * FROM Customer WHERE MktSegment = 'Asia') USING "StampIngestTime") AS p JOIN Parts ON p.Id = Parts.PartId`, nil)
	subs := signer.Subexpressions(n)
	for _, s := range subs {
		if s.Op == "Join" && s.Eligibility != signature.IneligibleNondetUDO {
			t.Errorf("join above nondet UDO: eligibility = %v", s.Eligibility)
		}
	}
	_ = n
}

func TestDependencyDepth(t *testing.T) {
	signature.ResetLibraries()
	defer signature.ResetLibraries()
	signature.RegisterLibrary("a", "b")
	signature.RegisterLibrary("b", "c")
	signature.RegisterLibrary("c")
	d, ok := signature.DependencyDepth([]string{"a"}, 10)
	if !ok || d != 3 {
		t.Errorf("depth = %d ok=%v, want 3 true", d, ok)
	}
	// Too deep.
	if _, ok := signature.DependencyDepth([]string{"a"}, 2); ok {
		t.Error("expected abort beyond limit")
	}
	// Cycle.
	signature.RegisterLibrary("x", "y")
	signature.RegisterLibrary("y", "x")
	if _, ok := signature.DependencyDepth([]string{"x"}, 10); ok {
		t.Error("cycles must abort")
	}
}

func TestDeepDepsIneligible(t *testing.T) {
	signature.ResetLibraries()
	defer signature.ResetLibraries()
	prev := ""
	for i := 0; i < 12; i++ {
		name := string(rune('a' + i))
		if prev != "" {
			signature.RegisterLibrary(prev, name)
		}
		prev = name
	}
	n := bindQuery(t, `PROCESS Customer USING "AddRowTag" DEPENDS "a"`, nil)
	subs := signer.Subexpressions(n)
	root := subs[len(subs)-1]
	if root.Eligibility != signature.IneligibleDeepDeps {
		t.Errorf("eligibility = %v, want deep-dependency-chain", root.Eligibility)
	}
}

// TestNondeterministicNodesHaveNoKey: a node that draws has no result-cache
// key, and neither has any node above it, whatever else made it ineligible:
// RANDOM() over a UDO whose dependency chain is too deep (eligibility
// deep-dependency-chain, from the UDO), a sort by RANDOM() (eligible), and a
// non-deterministic UDO over a deep one. Each node's key and eligibility are
// the same when a derived plan carries its entry.
func TestNondeterministicNodesHaveNoKey(t *testing.T) {
	signature.ResetLibraries()
	defer signature.ResetLibraries()
	prev := ""
	for i := 0; i < 12; i++ {
		name := string(rune('a' + i))
		if prev != "" {
			signature.RegisterLibrary(prev, name)
		}
		prev = name
	}
	for _, c := range []struct {
		src   string
		drawn string // the lowest operator without a key
	}{
		{`SELECT Name, RANDOM() AS r FROM (PROCESS Customer USING "AddRowTag" DEPENDS "a") AS p`, "Project"},
		{`SELECT * FROM Customer WHERE MktSegment = 'Asia' ORDER BY RANDOM()`, "Sort"},
		{`SELECT Name, COUNT(*) AS n FROM (PROCESS (PROCESS Customer USING "AddRowTag" DEPENDS "a") USING "StampIngestTime") AS p GROUP BY Name`, "UDO"},
	} {
		root := &plan.Output{Target: "out/x", Child: bindQuery(t, c.src, nil)}
		cold, keys := signer.Sign(root, nil)
		carried, carriedKeys := signer.Sign(root, cold)
		drawn := false
		for i, sub := range cold {
			_, has := keys[sub.Node]
			if sub.Op == c.drawn && !drawn {
				drawn = sub.Op != "UDO" || sub.Node.(*plan.UDO).Name == "StampIngestTime"
			}
			if has == drawn {
				t.Errorf("%s: %s (%v) has a key = %v, want %v", c.src, sub.Op, sub.Eligibility, has, !drawn)
			}
			if carriedKeys[sub.Node] != keys[sub.Node] || carried[i].Eligibility != sub.Eligibility {
				t.Errorf("%s: %s carried: key %q, eligibility %v; cold: key %q, eligibility %v",
					c.src, sub.Op, carriedKeys[sub.Node], carried[i].Eligibility, keys[sub.Node], sub.Eligibility)
			}
		}
		if !drawn {
			t.Errorf("%s: no %s in the plan", c.src, c.drawn)
		}
	}
}

func TestJobTagStableAcrossParams(t *testing.T) {
	src := `SELECT Name FROM Customer WHERE MktSegment = @seg`
	a := bindQuery(t, src, map[string]data.Value{"seg": data.String_("Asia")})
	b := bindQuery(t, src, map[string]data.Value{"seg": data.String_("Europe")})
	if signer.JobTag(a) != signer.JobTag(b) {
		t.Error("job tag must be stable across parameter changes")
	}
}

// Property: signatures are pure functions of the plan (no hidden state).
func TestSignaturePurity(t *testing.T) {
	n := bindQuery(t, `SELECT MktSegment, COUNT(*) AS n FROM Customer GROUP BY MktSegment`, nil)
	f := func(seed uint8) bool {
		s := &signature.Signer{EngineVersion: "fixed"}
		return s.Strict(n) == signer2().Strict(n) && s.Recurring(n) == signer2().Recurring(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func signer2() *signature.Signer { return &signature.Signer{EngineVersion: "fixed"} }

func TestSigShort(t *testing.T) {
	var s signature.Sig = "abcdefghijklmnop"
	if s.Short() != "abcdefghijkl" {
		t.Errorf("Short = %q", s.Short())
	}
	var tiny signature.Sig = "ab"
	if tiny.Short() != "ab" {
		t.Errorf("Short = %q", tiny.Short())
	}
}

// substitute rewrites root as the optimizer does: mk replaces every topmost
// subexpression pick selects and ancestors are rebuilt, each node reading its
// entry in cold, root's own enumeration, by position.
func substitute(root plan.Node, cold []signature.Subexpr, pick func(signature.Subexpr) bool, mk func(plan.Node, signature.Subexpr) plan.Node) plan.Node {
	var rec func(n plan.Node, i int) plan.Node
	rec = func(n plan.Node, i int) plan.Node {
		if s := cold[i]; s.Eligibility == signature.EligibleOK && pick(s) {
			return mk(n, s)
		}
		k := 0
		return plan.MapInputs(n, func(c plan.Node) plan.Node {
			c = rec(c, signature.InputPos(cold, i, k))
			k++
			return c
		})
	}
	return rec(root, len(cold)-1)
}

// matrixQueries are the substitution matrix's plans: eligible ones and one of
// every ineligibility class that propagates upward. The last needs
// matrixLibraries.
var matrixQueries = []string{
	`SELECT CustomerId, AVG(Price) AS p FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id WHERE MktSegment = 'Asia' GROUP BY CustomerId`,
	`SELECT Name FROM Customer WHERE MktSegment = 'Asia' UNION ALL SELECT Name FROM Customer WHERE MktSegment = 'Europe'`,
	`SELECT Name FROM (SELECT * FROM Customer WHERE MktSegment = 'Asia') AS c WHERE RANDOM() < 0.5`,
	`SELECT ingest_time FROM (PROCESS (SELECT * FROM Customer WHERE MktSegment = 'Asia') USING "StampIngestTime") AS p JOIN Parts ON p.Id = Parts.PartId`,
	`SELECT Brand, COUNT(*) AS n FROM (PROCESS Sales USING "AddRowTag" DEPENDS "a") AS s JOIN Parts ON s.PartId = Parts.PartId GROUP BY Brand`,
}

func matrixLibraries(t *testing.T) {
	signature.ResetLibraries()
	t.Cleanup(signature.ResetLibraries)
	signature.RegisterLibrary("a", "b")
}

func matrixRoot(t *testing.T, q string) plan.Node {
	return &plan.Output{Target: "out/x", Child: bindQuery(t, q, nil)}
}

func asSpool(n plan.Node, s signature.Subexpr) plan.Node {
	return &plan.Spool{Child: n, StrictSig: string(s.Strict)}
}

func asView(n plan.Node, s signature.Subexpr) plan.Node {
	return &plan.ViewScan{StrictSig: string(s.Strict), RecurringSig: string(s.Recurring), Out: n.Schema(), Fallback: n}
}

// substitutions calls fn with every plan the matrix derives from root: for
// each operator kind in turn ("" for none), root with that kind's topmost
// eligible operators under a Spool, and replaced by a ViewScan, with root's
// enumeration. It reports how many plans differ from root.
func substitutions(root plan.Node, fn func(op string, derived plan.Node, cold []signature.Subexpr)) (substituted int) {
	cold := signer.Subexpressions(root)
	for _, op := range []string{"", "Filter", "Project", "Join", "Aggregate", "Union", "UDO"} {
		for _, mk := range []func(plan.Node, signature.Subexpr) plan.Node{asSpool, asView} {
			derived := substitute(root, cold, func(s signature.Subexpr) bool { return s.Op == op }, mk)
			if derived != root {
				substituted++
			}
			fn(op, derived, cold)
		}
	}
	return substituted
}

// TestSubexpressionsKnownMatchesCold: Signer.Sign carrying signatures and
// eligibility from an enumeration to the plan derived from it — and
// result-cache keys from the same entries — gives, field by field, what
// signing the derived plan from scratch gives, over the substitution matrix.
// Strict, Recurring and JobTag, which read the walk, agree with its entries
// at every node, mid-plan Spools and ViewScans included.
func TestSubexpressionsKnownMatchesCold(t *testing.T) {
	matrixLibraries(t)
	substituted, spools, views := 0, 0, 0
	for _, q := range matrixQueries {
		substituted += substitutions(matrixRoot(t, q), func(op string, derived plan.Node, cold []signature.Subexpr) {
			got, gotKeys := signer.Sign(derived, cold)
			want := signer.Subexpressions(derived)
			if len(got) != len(want) {
				t.Fatalf("%q, %s substituted: %d entries, want %d", q, op, len(got), len(want))
			}
			for i := range want {
				if got[i].Node != want[i].Node {
					t.Fatalf("%q, %s substituted: entry %d is for another node", q, op, i)
				}
				g, w := got[i], want[i]
				g.Node, w.Node = nil, nil
				if !reflect.DeepEqual(g, w) {
					t.Errorf("%q, %s substituted: entry %d (%s):\ncarried: %+v\ncold:    %+v", q, op, i, want[i].Op, g, w)
				}
			}
			// A node rebuilt above a substitution does not keep its
			// original's key: it is hashed again.
			if g, w := gotKeys, signer.Physical(derived); !reflect.DeepEqual(g, w) {
				t.Errorf("%q, %s substituted: carried keys differ from a cold signing:\ncarried: %v\ncold:    %v", q, op, g, w)
			}
			// Every node's signatures are its entry's; a Spool's are its
			// child's.
			at := make(map[plan.Node]signature.Subexpr, len(got))
			for _, e := range got {
				at[e.Node] = e
			}
			var check func(n plan.Node) signature.Subexpr
			check = func(n plan.Node) (e signature.Subexpr) {
				var buf [2]plan.Node
				for _, c := range plan.Inputs(n, &buf) {
					e = check(c)
				}
				if _, spool := n.(*plan.Spool); spool {
					spools++
				} else {
					e = at[n]
				}
				if _, view := n.(*plan.ViewScan); view {
					views++
				}
				if s, r := signer.Strict(n), signer.Recurring(n); s != e.Strict || r != e.Recurring {
					t.Errorf("%q, %s substituted: %s signs as (%s, %s), its entry holds (%s, %s)", q, op, n.OpName(), s, r, e.Strict, e.Recurring)
				}
				return e
			}
			check(derived)
			if g, w := signer.JobTag(derived), signature.TagForTemplate(got[len(got)-1].Recurring); g != w {
				t.Errorf("%q, %s substituted: job tag %s, the root entry's is %s", q, op, g, w)
			}
		})
	}
	if substituted < 10 || spools == 0 || views == 0 {
		t.Fatalf("only %d substitutions happened (%d Spools, %d ViewScans)", substituted, spools, views)
	}
}

// TestConcurrentKnownSigningReadsOnly: jobs derive their plans and keys from
// one enumeration at the same time, so the carry-over may only read it. Under
// -race a write is reported; in any mode every goroutine must get what a cold
// signing gives and the shared entries must come out as they went in.
func TestConcurrentKnownSigningReadsOnly(t *testing.T) {
	root := plan.Node(&plan.Output{Target: "out/x", Child: bindQuery(t,
		`SELECT CustomerId, AVG(Price) AS p FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id WHERE MktSegment = 'Asia' GROUP BY CustomerId`, nil)})
	cold := signer.Subexpressions(root)
	before := append([]signature.Subexpr(nil), cold...)
	derived := substitute(root, cold, func(s signature.Subexpr) bool { return s.Op == "Join" }, asView)
	wantSubs, wantKeys := signer.Subexpressions(derived), signer.Physical(derived)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, keys := signer.Sign(derived, cold)
				if !reflect.DeepEqual(got, wantSubs) {
					t.Errorf("carried enumeration differs from a cold signing: %+v", got)
					return
				}
				if !reflect.DeepEqual(keys, wantKeys) {
					t.Errorf("carried keys differ from a cold signing: %v", keys)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(cold, before) {
		t.Error("the shared enumeration was written")
	}
}

var keyMapSink map[plan.Node]signature.Sig

// TestCarriedViewPlanHashesOnlyItsKeys: signing a carried plan renders and
// hashes nothing but the result-cache keys on and above a ViewScan, from the
// strict signatures the walk already holds, and a carried node with no
// ViewScan at or below it takes its entry's dataset list. It allocates one
// string per node on or above a view, the entry slice and the key map: a
// carried plan that reads no view, a Join over two Scans, allocates no union
// of their datasets.
func TestCarriedViewPlanHashesOnlyItsKeys(t *testing.T) {
	viewRoot := plan.Node(&plan.Output{Target: "out/x", Child: bindQuery(t,
		`SELECT CustomerId, AVG(Price) AS p FROM Sales JOIN (SELECT * FROM Customer WHERE MktSegment = 'Asia') AS c ON Sales.CustomerId = c.Id GROUP BY CustomerId`, nil)})
	viewSubs := signer.Subexpressions(viewRoot)
	viewPlan := substitute(viewRoot, viewSubs, func(s signature.Subexpr) bool { return s.Op == "Filter" }, asView)
	joinPlan := plan.Node(&plan.Output{Target: "out/x", Child: bindQuery(t,
		`SELECT CustomerId, AVG(Price) AS p FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id WHERE MktSegment = 'Asia' GROUP BY CustomerId`, nil)})
	for _, c := range []struct {
		name      string
		derived   plan.Node
		prepared  []signature.Subexpr
		wantViews int
	}{
		{"reads a view", viewPlan, viewSubs, 1},
		{"join over two scans", joinPlan, signer.Subexpressions(joinPlan), 0},
	} {
		views, onOrAbove, scans, joins := 0, 0, 0, 0
		var nodes []plan.Node
		var count func(n plan.Node) bool
		count = func(n plan.Node) (view bool) {
			var buf [2]plan.Node
			for _, in := range plan.Inputs(n, &buf) {
				view = count(in) || view
			}
			switch n.(type) {
			case *plan.ViewScan:
				views, view = views+1, true
			case *plan.Scan:
				scans++
			case *plan.Join:
				joins++
			}
			if view {
				onOrAbove++
			}
			nodes = append(nodes, n)
			return view
		}
		count(c.derived)
		if views != c.wantViews || scans == 0 || joins != 1 {
			t.Fatalf("%s: plan has %d ViewScans, %d Scans and %d Joins, want %d, at least 1 and 1:\n%s", c.name, views, scans, joins, c.wantViews, plan.Format(c.derived))
		}
		// The key map's own allocations depend on the runtime's map layout.
		keyMap := testing.AllocsPerRun(100, func() {
			keyMapSink = make(map[plan.Node]signature.Sig, len(nodes))
			for _, n := range nodes {
				keyMapSink[n] = ""
			}
		})
		got := testing.AllocsPerRun(100, func() { signer.Sign(c.derived, c.prepared) })
		want := float64(onOrAbove) + 1 + keyMap
		t.Logf("%s: %.0f allocs signing a carried %d-node plan, %d nodes on or above a view (key map %.0f)", c.name, got, len(nodes), onOrAbove, keyMap)
		if got != want {
			t.Errorf("%s: %.0f allocs signing a carried plan, want %.0f: %d keys, the entry slice and the key map (%.0f)", c.name, got, want, onOrAbove, keyMap)
		}
	}
}

package containment_test

import (
	"testing"
	"testing/quick"
	"time"

	"cloudviews/internal/containment"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/storage"
)

func col(i int) plan.Expr                     { return &plan.ColRef{Index: i, Name: "c", Typ: data.KindFloat} }
func num(v float64) plan.Expr                 { return &plan.Const{Val: data.Float(v)} }
func str(s string) plan.Expr                  { return &plan.Const{Val: data.String_(s)} }
func bin(op string, l, r plan.Expr) plan.Expr { return &plan.Binary{Op: op, L: l, R: r} }
func and(l, r plan.Expr) plan.Expr            { return bin("AND", l, r) }

func implies(q, v plan.Expr) bool {
	return containment.Analyze(q).Implies(containment.Analyze(v))
}

func TestImplicationBasics(t *testing.T) {
	cases := []struct {
		name string
		q, v plan.Expr
		want bool
	}{
		{"tighter-gt", bin(">", col(0), num(6)), bin(">", col(0), num(5)), true},
		{"looser-gt", bin(">", col(0), num(5)), bin(">", col(0), num(6)), false},
		{"equal-bounds", bin(">", col(0), num(5)), bin(">", col(0), num(5)), true},
		{"gt-implies-ge", bin(">", col(0), num(5)), bin(">=", col(0), num(5)), true},
		{"ge-not-implies-gt", bin(">=", col(0), num(5)), bin(">", col(0), num(5)), false},
		{"eq-implies-range", bin("=", col(0), num(7)), and(bin(">", col(0), num(5)), bin("<", col(0), num(10))), true},
		{"eq-outside-range", bin("=", col(0), num(3)), bin(">", col(0), num(5)), false},
		{"range-in-range", and(bin(">", col(0), num(10)), bin("<", col(0), num(20))),
			and(bin(">", col(0), num(5)), bin("<", col(0), num(25))), true},
		{"range-overhang", and(bin(">", col(0), num(1)), bin("<", col(0), num(30))),
			and(bin(">", col(0), num(5)), bin("<", col(0), num(25))), false},
		{"unconstrained-col", bin(">", col(1), num(5)), bin(">", col(0), num(5)), false},
		{"multi-col", and(bin(">", col(0), num(6)), bin("=", col(1), str("asia"))),
			bin(">", col(0), num(5)), true},
		{"string-eq", bin("=", col(1), str("asia")), bin("=", col(1), str("asia")), true},
		{"string-eq-mismatch", bin("=", col(1), str("asia")), bin("=", col(1), str("eu")), false},
		{"neq-satisfied-by-eq", bin("=", col(0), num(5)), bin("!=", col(0), num(3)), true},
		{"neq-not-guaranteed", bin(">", col(0), num(1)), bin("!=", col(0), num(3)), false},
		{"neq-guaranteed-by-range", bin(">", col(0), num(5)), bin("!=", col(0), num(3)), true},
		{"same-neq", bin("!=", col(0), num(3)), bin("!=", col(0), num(3)), true},
	}
	for _, c := range cases {
		if got := implies(c.q, c.v); got != c.want {
			t.Errorf("%s: implies = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestUnsupportedFragmentRejected(t *testing.T) {
	or := bin("OR", bin(">", col(0), num(5)), bin("<", col(0), num(1)))
	if containment.Analyze(or).Implies(containment.Analyze(bin(">", col(0), num(0)))) {
		t.Error("OR predicates must be rejected, not mis-analyzed")
	}
	cross := bin(">", col(0), col(1))
	p := containment.Analyze(cross)
	if p.Implies(containment.Analyze(bin(">", col(0), num(0)))) {
		t.Error("cross-column terms must be rejected")
	}
}

// Property: implication is consistent with evaluation — whenever Analyze says
// q implies v, every row satisfying q satisfies v.
func TestImplicationSoundness(t *testing.T) {
	mk := func(op uint8, bound int8) plan.Expr {
		ops := []string{">", ">=", "<", "<=", "=", "!="}
		return bin(ops[int(op)%len(ops)], col(0), num(float64(bound)))
	}
	f := func(op1, op2 uint8, b1, b2 int8, probe int8) bool {
		q := mk(op1, b1)
		v := mk(op2, b2)
		if !implies(q, v) {
			return true // nothing to check
		}
		row := data.Row{data.Float(float64(probe))}
		qv := q.Eval(row, nil)
		vv := v.Eval(row, nil)
		if qv.B && !vv.B {
			return false // q held but v did not: unsound implication
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestEndToEndContainedRewrite(t *testing.T) {
	cat, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		t.Fatal(err)
	}
	signer := &signature.Signer{EngineVersion: "cont-test"}
	store := storage.NewStore(func() time.Time { return fixtures.Epoch })
	ix := containment.NewIndex()

	bind := func(src string) plan.Node {
		q, err := sqlparser.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		b := &plan.Binder{Catalog: cat}
		n, err := b.BindQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	// Materialize the WIDE view: Sales with Quantity > 2.
	wide := bind(`SELECT * FROM Sales WHERE Quantity > 2`)
	wideSubs := signer.Subexpressions(wide)
	wideSig := wideSubs[len(wideSubs)-1].Strict
	spooled := &plan.Spool{Child: wide, StrictSig: string(wideSig), Path: "v/wide"}
	if _, err := (&exec.Executor{Catalog: cat, Views: store}).Run(spooled); err != nil {
		t.Fatal(err)
	}
	store.Seal(wideSig)
	if n := containment.HarvestViews(spooled, signer, store, ix); n != 1 {
		t.Fatalf("harvested %d views, want 1", n)
	}

	// A NARROWER query: Quantity > 5 — no exact match, but contained.
	narrow := bind(`SELECT * FROM Sales WHERE Quantity > 5`)
	baseline, err := (&exec.Executor{Catalog: cat}).Run(narrow)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, res := containment.Rewrite(narrow, signer, ix, store)
	if res.Rewrites != 1 {
		t.Fatalf("rewrites = %d\n%s", res.Rewrites, plan.Format(rewritten))
	}
	got, err := (&exec.Executor{Catalog: cat, Views: store}).Run(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.Fingerprint() != baseline.Table.Fingerprint() {
		t.Error("contained rewrite changed results")
	}
	var viewRead int64
	for _, st := range got.Stats {
		if _, ok := st.Node.(*plan.ViewScan); ok {
			viewRead += st.Read
		}
	}
	if viewRead == 0 {
		t.Error("rewrite must read from the view")
	}

	// A DISJOINT query must not match.
	disjoint := bind(`SELECT * FROM Sales WHERE Quantity < 2`)
	_, res2 := containment.Rewrite(disjoint, signer, ix, store)
	if res2.Rewrites != 0 {
		t.Error("disjoint predicate must not be rewritten")
	}
}

func TestTightestViewPreferred(t *testing.T) {
	ix := containment.NewIndex()
	schema := data.Schema{{Name: "c", Kind: data.KindFloat}}
	// Two containing views: a huge one (>0) and a tight one (>5).
	ix.Register("view-wide", "child", bin(">", col(0), num(0)), schema, 1_000_000)
	ix.Register("view-tight", "child", bin(">", col(0), num(5)), schema, 10_000)
	sig, ok := ix.Match("child", bin(">", col(0), num(7)))
	if !ok || sig != "view-tight" {
		t.Errorf("match = %v %v, want the tight view", sig, ok)
	}
	// A query only the wide view contains.
	sig, ok = ix.Match("child", bin(">", col(0), num(2)))
	if !ok || sig != "view-wide" {
		t.Errorf("match = %v %v, want the wide view", sig, ok)
	}
	if ix.Len() != 2 {
		t.Errorf("len = %d", ix.Len())
	}
}

func TestRegisterRejectsUnsupported(t *testing.T) {
	ix := containment.NewIndex()
	schema := data.Schema{{Name: "c", Kind: data.KindFloat}}
	or := bin("OR", bin(">", col(0), num(5)), bin("<", col(0), num(1)))
	if ix.Register("v", "child", or, schema, 10) {
		t.Error("OR view must not register")
	}
}

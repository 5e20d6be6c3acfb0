package plan_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"testing"

	"cloudviews/internal/data"
	"cloudviews/internal/plan"
)

// TestInputsMatchesChildren: for every operator declared in node.go, Inputs
// lists its children — the struct's plan.Node fields, in declaration order —
// without allocating, and WithInputs rebuilds it: handed the node's own inputs
// it returns a new node whose struct equals the old one, and handed fresh ones
// it installs them and leaves every other field alone. ViewScan.Fallback is a
// plan.Node field and not a child: it carries the replaced subexpression for
// the executor to recompute when the view cannot be read, and signatures,
// formatting and stages must not see it. Every field of every operator below
// is set, so a rebuild that drops one shows.
func TestInputsMatchesChildren(t *testing.T) {
	schema := data.Schema{{Name: "x", Kind: data.KindInt}}
	a := &plan.Scan{Dataset: "a", GUID: "g", Out: schema, BaseRows: 7}
	b := &plan.ViewScan{StrictSig: "s", RecurringSig: "r", Path: "p", Out: schema, Rows: 3, Bytes: 24, ReplacedOp: "Filter", Fallback: a}
	x := col(0, "x")
	nodes := []plan.Node{
		a, b,
		&plan.Filter{Pred: x, Child: a},
		&plan.Project{Exprs: []plan.Expr{x}, Names: []string{"x"}, Child: a},
		&plan.Join{LeftKeys: []plan.Expr{x}, RightKeys: []plan.Expr{x}, Residual: x, L: a, R: b, Algo: plan.JoinMerge},
		plan.NewAggregate([]plan.Expr{x}, []string{"x"}, []plan.AggSpec{{Kind: plan.AggSum, Arg: x, Name: "s"}}, a),
		&plan.Union{L: b, R: a},
		&plan.UDO{Name: "u", Depends: []string{"lib"}, Nondet: true, Child: a, Out: schema},
		&plan.Sample{Percent: 10, Child: a},
		&plan.Sort{Keys: []plan.Expr{x}, Desc: []bool{true}, Child: a},
		&plan.Output{Target: "t", Child: a},
		&plan.Spool{Child: a, StrictSig: "s", Path: "p", VC: "vc"},
	}
	var listed []string
	for _, n := range nodes {
		listed = append(listed, reflect.TypeOf(n).Elem().Name())
	}
	slices.Sort(listed)
	if declared := operators(t, "node.go"); !slices.Equal(listed, declared) {
		t.Fatalf("operators listed %v, declared in node.go %v", listed, declared)
	}

	nodeType := reflect.TypeFor[plan.Node]()
	for _, n := range nodes {
		t.Run(fmt.Sprintf("%T", n), func(t *testing.T) {
			v := reflect.ValueOf(n).Elem()
			var want []plan.Node
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if v.Field(i).IsZero() {
					t.Fatalf("field %s is not set", f.Name)
				}
				if f.Type == nodeType && f.Name != "Fallback" {
					want = append(want, v.Field(i).Interface().(plan.Node))
				}
			}
			var buf [2]plan.Node
			got := plan.Inputs(n, &buf)
			if !slices.Equal(got, want) {
				t.Fatalf("Inputs = %v, want the node fields %v", got, want)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				var buf [2]plan.Node
				_ = plan.Inputs(n, &buf)
			}); allocs != 0 {
				t.Errorf("%.0f allocations per call", allocs)
			}

			same := plan.WithInputs(n, got)
			if same == n {
				t.Fatal("WithInputs returned its input, not a copy")
			}
			if f, ok := sameFields(v, reflect.ValueOf(same).Elem(), nil); !ok {
				t.Errorf("WithInputs of its own inputs changed field %s", f)
			}

			fresh := make([]plan.Node, len(want))
			for i := range fresh {
				fresh[i] = &plan.Scan{Dataset: fmt.Sprint("fresh", i), Out: schema}
			}
			m := plan.WithInputs(n, slices.Clone(fresh))
			if got := plan.Inputs(m, &buf); !slices.Equal(got, fresh) {
				t.Errorf("WithInputs installed %v, want %v", got, fresh)
			}
			if f, ok := sameFields(v, reflect.ValueOf(m).Elem(), nodeType); !ok {
				t.Errorf("WithInputs of fresh inputs changed field %s", f)
			}
			if got := plan.Inputs(n, &buf); !slices.Equal(got, want) {
				t.Error("WithInputs wrote its input")
			}
		})
	}
}

// sameFields reports whether structs a and b hold the same fields, slices
// compared as headers (a shallow copy shares them); fields of type skip,
// other than ViewScan.Fallback, are not compared. It names the first field
// that differs.
func sameFields(a, b reflect.Value, skip reflect.Type) (string, bool) {
	for i := 0; i < a.NumField(); i++ {
		f, x, y := a.Type().Field(i), a.Field(i), b.Field(i)
		if f.Type == skip && f.Name != "Fallback" {
			continue
		}
		if x.Kind() == reflect.Slice {
			if x.Pointer() != y.Pointer() || x.Len() != y.Len() {
				return f.Name, false
			}
		} else if x.Interface() != y.Interface() {
			return f.Name, false
		}
	}
	return "", true
}

// operators returns, sorted, the types file declares an OpName method on.
func operators(t *testing.T, file string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.Name == "OpName" {
			out = append(out, fn.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name)
		}
	}
	slices.Sort(out)
	return out
}

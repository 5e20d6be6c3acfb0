package plan_test

import (
	"fmt"
	"testing"

	"cloudviews/internal/data"
	"cloudviews/internal/plan"
)

// fanIn is an operator Inputs has no switch arm for: it takes the Children
// fallback, and may have more inputs than the caller's buffer holds.
type fanIn struct {
	plan.Union
	extra plan.Node
}

func (f *fanIn) Children() []plan.Node { return []plan.Node{f.L, f.R, f.extra} }

// TestInputsMatchesChildren: for every operator of the package Inputs lists
// what Children lists, in order, without allocating. A type added to node.go
// and not to the list below still reads correctly through the fallback; the
// sub-test names are the types held to zero allocations.
func TestInputsMatchesChildren(t *testing.T) {
	a := &plan.Scan{Dataset: "a", Out: data.Schema{{Name: "x", Kind: data.KindInt}}}
	b := &plan.ViewScan{StrictSig: "s", Out: a.Out}
	nodes := []plan.Node{
		a, b,
		&plan.Filter{Pred: col(0, "x"), Child: a},
		&plan.Project{Exprs: []plan.Expr{col(0, "x")}, Names: []string{"x"}, Child: a},
		&plan.Join{L: a, R: b},
		&plan.Aggregate{Child: a},
		&plan.Union{L: b, R: a},
		&plan.UDO{Name: "u", Child: a},
		&plan.Sample{Percent: 10, Child: a},
		&plan.Sort{Child: a},
		&plan.Output{Target: "t", Child: a},
		&plan.Spool{Child: a},
	}
	same := func(t *testing.T, n plan.Node) {
		t.Helper()
		var buf [2]plan.Node
		got, want := plan.Inputs(n, &buf), n.Children()
		if len(got) != len(want) {
			t.Fatalf("%d inputs, %d children", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("input %d is not child %d", i, i)
			}
		}
	}
	for _, n := range nodes {
		t.Run(fmt.Sprintf("%T", n), func(t *testing.T) {
			same(t, n)
			if allocs := testing.AllocsPerRun(100, func() {
				var buf [2]plan.Node
				_ = plan.Inputs(n, &buf)
			}); allocs != 0 {
				t.Errorf("%.0f allocations per call", allocs)
			}
		})
	}
	t.Run("fallback", func(t *testing.T) {
		same(t, &fanIn{Union: plan.Union{L: a, R: b}, extra: a})
	})
}

package plan_test

import (
	"strings"
	"testing"

	"cloudviews/internal/plan"
)

// TestFormatGolden pins the plan rendering for the Figure 4 query so
// accidental changes to operator attributes (which feed signatures) are
// caught loudly.
func TestFormatGolden(t *testing.T) {
	n := mustBind(t, `SELECT CustomerId, AVG(Price * Quantity) AS avg_sales
		FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id
		WHERE MktSegment = 'Asia'
		GROUP BY CustomerId`, nil)
	n = plan.NormalizeNode(n)
	got := plan.Format(n)
	want := strings.Join([]string{
		"Aggregate[groupby=[col:customerid#1],aggs=[AVG((col:price#3 * col:quantity#4))->avg_sales]]",
		"  Filter[pred=(col:mktsegment#9 = lit:STRING:Asia)]",
		"    Join[keys=[col:customerid#1=col:id#0]]",
	}, "\n")
	if !strings.HasPrefix(got, want) {
		t.Errorf("format drifted:\n%s\nwant prefix:\n%s", got, want)
	}
	if !strings.Contains(got, "Scan[ds=Sales,guid=") || !strings.Contains(got, "Scan[ds=Customer,guid=") {
		t.Errorf("scans missing:\n%s", got)
	}
}

func TestCountNodes(t *testing.T) {
	n := mustBind(t, `SELECT Name FROM Customer WHERE Id > 5`, nil)
	if got := plan.CountNodes(n); got != 3 { // Project, Filter, Scan
		t.Errorf("CountNodes = %d, want 3\n%s", got, plan.Format(n))
	}
}

func TestWalkOrder(t *testing.T) {
	n := mustBind(t, `SELECT Price FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id`, nil)
	var ops []string
	plan.Walk(n, func(m plan.Node) { ops = append(ops, m.OpName()) })
	joined := strings.Join(ops, ",")
	if joined != "Project,Join,Scan,Scan" {
		t.Errorf("walk order = %s", joined)
	}
}

func TestJoinAlgoStrings(t *testing.T) {
	cases := map[plan.JoinAlgo]string{
		plan.JoinAuto:  "Auto",
		plan.JoinHash:  "Hash Join",
		plan.JoinMerge: "Merge Join",
		plan.JoinLoop:  "Loop Join",
	}
	for algo, want := range cases {
		if algo.String() != want {
			t.Errorf("%d = %q, want %q", algo, algo.String(), want)
		}
	}
}

func TestSpoolTransparentInSchema(t *testing.T) {
	n := mustBind(t, `SELECT Name FROM Customer WHERE Id > 5`, nil)
	sp := &plan.Spool{Child: n, StrictSig: "x", Path: "p"}
	if !sp.Schema().Equal(n.Schema()) {
		t.Error("spool must preserve schema")
	}
	var buf [2]plan.Node
	if len(plan.Inputs(sp, &buf)) != 1 {
		t.Error("spool has one child")
	}
}

func TestUDOAttrsStableUnderDependsOrder(t *testing.T) {
	a := &plan.UDO{Name: "X", Depends: []string{"libB", "libA"}}
	b := &plan.UDO{Name: "X", Depends: []string{"libA", "libB"}}
	if attrs(t, a, false) != attrs(t, b, false) {
		t.Error("dependency order must not affect signatures")
	}
}

package plan_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudviews/internal/data"
	"cloudviews/internal/plan"
)

func TestBinaryKinds(t *testing.T) {
	icol := &plan.ColRef{Index: 0, Name: "i", Typ: data.KindInt}
	fcol := &plan.ColRef{Index: 1, Name: "f", Typ: data.KindFloat}
	scol := &plan.ColRef{Index: 2, Name: "s", Typ: data.KindString}
	cases := []struct {
		e    plan.Expr
		want data.Kind
	}{
		{&plan.Binary{Op: "+", L: icol, R: icol}, data.KindInt},
		{&plan.Binary{Op: "+", L: icol, R: fcol}, data.KindFloat},
		{&plan.Binary{Op: "+", L: scol, R: icol}, data.KindString},
		{&plan.Binary{Op: "/", L: icol, R: icol}, data.KindFloat},
		{&plan.Binary{Op: "=", L: icol, R: icol}, data.KindBool},
		{&plan.Binary{Op: "AND", L: icol, R: icol}, data.KindBool},
		{&plan.Unary{Op: "NOT", E: icol}, data.KindBool},
		{&plan.Unary{Op: "-", E: fcol}, data.KindFloat},
		{&plan.Call{Name: "YEAR", Args: []plan.Expr{icol}}, data.KindInt},
		{&plan.Call{Name: "LOWER", Args: []plan.Expr{scol}}, data.KindString},
		{&plan.Call{Name: "NOW"}, data.KindTime},
	}
	for i, c := range cases {
		if got := c.e.Kind(); got != c.want {
			t.Errorf("case %d: Kind = %v, want %v", i, got, c.want)
		}
	}
}

func TestArithmeticEval(t *testing.T) {
	row := data.Row{data.Int(10), data.Float(2.5), data.String_("ab")}
	icol := &plan.ColRef{Index: 0, Typ: data.KindInt}
	fcol := &plan.ColRef{Index: 1, Typ: data.KindFloat}
	scol := &plan.ColRef{Index: 2, Typ: data.KindString}
	cases := []struct {
		e    plan.Expr
		want data.Value
	}{
		{&plan.Binary{Op: "+", L: icol, R: icol}, data.Int(20)},
		{&plan.Binary{Op: "*", L: icol, R: fcol}, data.Float(25)},
		{&plan.Binary{Op: "-", L: icol, R: icol}, data.Int(0)},
		{&plan.Binary{Op: "%", L: icol, R: &plan.Const{Val: data.Int(3)}}, data.Int(1)},
		{&plan.Binary{Op: "+", L: scol, R: icol}, data.String_("ab10")},
		{&plan.Unary{Op: "-", E: icol}, data.Int(-10)},
	}
	for i, c := range cases {
		got := c.e.Eval(row, nil)
		if !got.Equal(c.want) {
			t.Errorf("case %d: Eval = %v, want %v", i, got, c.want)
		}
	}
}

func TestShortCircuitEvaluation(t *testing.T) {
	// FALSE AND <anything> must not need the right side's columns.
	f := &plan.Const{Val: data.Bool(false)}
	danger := &plan.ColRef{Index: 99, Typ: data.KindBool} // out of range → NULL, not panic
	e := &plan.Binary{Op: "AND", L: f, R: danger}
	if got := e.Eval(data.Row{}, nil); got.B {
		t.Error("false AND x = false")
	}
	tr := &plan.Const{Val: data.Bool(true)}
	e2 := &plan.Binary{Op: "OR", L: tr, R: danger}
	if got := e2.Eval(data.Row{}, nil); !got.B {
		t.Error("true OR x = true")
	}
}

func TestNondeterministicBuiltins(t *testing.T) {
	ctx := &plan.EvalContext{NowNanos: time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC).UnixNano(), Rand: data.NewRand(1)}
	now := (&plan.Call{Name: "NOW"}).Eval(nil, ctx)
	if now.AsTime().UTC().Year() != 2020 {
		t.Errorf("NOW = %v", now)
	}
	g1 := (&plan.Call{Name: "NEWGUID"}).Eval(nil, ctx)
	g2 := (&plan.Call{Name: "NEWGUID"}).Eval(nil, ctx)
	if g1.S == g2.S {
		t.Error("NEWGUID must produce fresh values")
	}
	r := (&plan.Call{Name: "RANDOM"}).Eval(nil, ctx)
	if r.F < 0 || r.F >= 1 {
		t.Errorf("RANDOM = %g", r.F)
	}
}

func TestCoalesceAndHashBucket(t *testing.T) {
	null := &plan.Const{Val: data.Null()}
	five := &plan.Const{Val: data.Int(5)}
	c := &plan.Call{Name: "COALESCE", Args: []plan.Expr{null, five}}
	if got := c.Eval(nil, nil); got.I != 5 {
		t.Errorf("COALESCE = %v", got)
	}
	hb := &plan.Call{Name: "HASHBUCKET", Args: []plan.Expr{&plan.Const{Val: data.String_("key")}, &plan.Const{Val: data.Int(16)}}}
	got := hb.Eval(nil, nil)
	if got.I < 0 || got.I >= 16 {
		t.Errorf("HASHBUCKET = %v", got)
	}
	// Stable.
	if hb.Eval(nil, nil).I != got.I {
		t.Error("HASHBUCKET must be deterministic")
	}
}

func TestParamCanonicalForms(t *testing.T) {
	p := &plan.Param{Name: "cutoff", Val: data.Int(42)}
	if canonical(t, p) == recurring(t, p) {
		t.Error("strict and recurring canonical forms must differ for params")
	}
	q := &plan.Param{Name: "cutoff", Val: data.Int(99)}
	if recurring(t, p) != recurring(t, q) {
		t.Error("recurring form must ignore the value")
	}
	if canonical(t, p) == canonical(t, q) {
		t.Error("strict form must include the value")
	}
}

// TestJoinSidesAndShiftColumns: JoinSides classifies an expression over a
// join's concatenated columns as ColumnsUsed would, without allocating, and
// ShiftColumns rebases a copy as RemapColumns would through the map of every
// used index to index-leftWidth, leaving its input as it was.
func TestJoinSidesAndShiftColumns(t *testing.T) {
	col := func(i int) plan.Expr { return &plan.ColRef{Index: i, Typ: data.KindInt} }
	for _, c := range []struct {
		e    plan.Expr
		want int
	}{
		{&plan.Const{Val: data.Int(1)}, 0},
		{&plan.Binary{Op: "=", L: col(1), R: &plan.Param{Name: "p", Val: data.Int(2)}}, 1},
		{&plan.Unary{Op: "-", E: col(3)}, 2},
		{&plan.Call{Name: "COALESCE", Args: []plan.Expr{col(4), &plan.Const{Val: data.Int(0)}, col(5)}}, 2},
		{&plan.Binary{Op: "+", L: col(4), R: &plan.Call{Name: "ABS", Args: []plan.Expr{col(0)}}}, 3},
	} {
		const leftWidth = 3
		got := plan.JoinSides(c.e, leftWidth)
		if got != c.want {
			t.Errorf("JoinSides(%s) = %d, want %d", canonical(t, c.e), got, c.want)
		}
		if n := testing.AllocsPerRun(10, func() { plan.JoinSides(c.e, leftWidth) }); n != 0 {
			t.Errorf("JoinSides(%s) allocated %v times", canonical(t, c.e), n)
		}
		before := canonical(t, c.e)
		mapping := map[int]int{}
		for i := range plan.ColumnsUsed(c.e) {
			mapping[i] = i - leftWidth
		}
		if got, want := canonical(t, plan.ShiftColumns(c.e, leftWidth)), canonical(t, plan.RemapColumns(c.e, mapping)); got != want {
			t.Errorf("ShiftColumns(%s) = %s, want %s", before, got, want)
		}
		if canonical(t, c.e) != before {
			t.Errorf("ShiftColumns rewrote its input %s", before)
		}
	}
}

// TestCloneRowIndependentRows: the built-in UDOs clone through the context's
// slab whether or not the executor announced a count, and what they emit
// shares nothing with the input or with a neighbouring output row.
func TestCloneRowIndependentRows(t *testing.T) {
	impl, ok := plan.LookupUDO("AddRowTag")
	if !ok {
		t.Fatal("AddRowTag not registered")
	}
	for _, announce := range []bool{false, true} {
		ctx := &plan.EvalContext{Rand: data.NewRand(1)}
		if announce {
			ctx.ExpectRows(3)
		}
		in := []data.Row{{data.Int(1), data.String_("a")}, {data.Int(2), data.String_("b")}, {data.Int(3), data.String_("c")}}
		var out []data.Row
		for _, r := range in {
			impl.Apply(r, func(o data.Row) { out = append(out, o) }, ctx)
		}
		if len(out) != len(in) {
			t.Fatalf("announce=%v: %d rows out, want %d", announce, len(out), len(in))
		}
		for i, o := range out {
			if len(o) != 3 || cap(o) != 3 || o[0].I != in[i][0].I || o[1].S != in[i][1].S || o[2].Kind != data.KindInt {
				t.Fatalf("announce=%v: row %d = %v (cap %d)", announce, i, o, cap(o))
			}
		}
		tag := out[1][0]
		_ = append(out[0], data.Int(-1)) // must reallocate, not reach out[1]
		out[0][0] = data.Int(99)
		if out[1][0] != tag || in[0][0].I != 1 {
			t.Fatalf("announce=%v: writing one emitted row reached its neighbour or its input", announce)
		}
	}
}

// TestAddRowTagHashesStringForm: AddRowTag's tag is the FNV hash of every
// cell's String() rendering, streamed rather than built, byte for byte: for
// every Kind, NULL, NaN, infinities, negative zero, a string longer than the
// buffer, and times with and without a fraction, in and out of UTC. Cell
// allocates nothing, and each appending UDO's Apply emits one row: a copy of
// its input followed by the cell Cell returns.
func TestAddRowTagHashesStringForm(t *testing.T) {
	impl, ok := plan.LookupUDO("AddRowTag")
	if !ok || impl.Cell == nil {
		t.Fatal("AddRowTag not registered as an appending UDO")
	}
	east := time.FixedZone("east", 5*3600+1800)
	rows := []data.Row{
		{},
		{data.Null()},
		{data.Int(0), data.Int(-1), data.Int(math.MaxInt64), data.Int(math.MinInt64)},
		{data.Float(math.NaN()), data.Float(math.Inf(1)), data.Float(math.Inf(-1)), data.Float(math.Copysign(0, -1)), data.Float(0.1), data.Float(1e300)},
		{data.String_(""), data.String_("asia"), data.String_(strings.Repeat("long-", 40)), data.String_("x\x00y")},
		{data.Bool(true), data.Bool(false)},
		{data.Time(time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)), data.Time(time.Date(2024, 3, 1, 12, 0, 0, 250_000_000, east)), data.Time(time.Unix(0, 1))},
		{data.Int(7), data.Null(), data.String_("mixed"), data.Float(2.5), data.Bool(true), data.Time(time.Unix(1_600_000_000, 123_456_789))},
	}
	ctx := &plan.EvalContext{Rand: data.NewRand(1), NowNanos: 42}
	for _, r := range rows {
		h := data.FNVOffset
		for _, v := range r {
			h = data.FNV64a(h, v.String())
		}
		want := data.Int(int64(h & 0x7fffffffffffffff))
		if got := impl.Cell(r, ctx); got != want {
			t.Errorf("%v: tag %v, want %v from the String() forms", r, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { impl.Cell(r, ctx) }); allocs != 0 {
			t.Errorf("%v: Cell allocates %.0f times a row", r, allocs)
		}
	}
	for _, name := range []string{"AddRowTag", "StampIngestTime"} {
		impl, _ := plan.LookupUDO(name)
		for _, r := range rows {
			var out []data.Row
			impl.Apply(r, func(o data.Row) { out = append(out, o) }, ctx)
			want := append(r.Clone(), impl.Cell(r, ctx))
			same := len(out) == 1 && len(out[0]) == len(want)
			for i := 0; same && i < len(want); i++ {
				a, b := out[0][i], want[i]
				same = a.Kind == b.Kind && a.S == b.S && a.I == b.I && a.B == b.B && math.Float64bits(a.F) == math.Float64bits(b.F)
			}
			if !same {
				t.Errorf("%s over %v: Apply emitted %v, want %v", name, r, out, want)
			}
		}
	}
}

// TestNormalizeStringsCopiesOnWrite: copy on write changes which rows are
// fresh, never what they hold. Every output row equals what the always-clone
// implementation produced, a row lower-casing changes is a copy and its input
// is left as it was, and a row it does not change — clean, empty, NULL or
// string-free — is the input row itself.
func TestNormalizeStringsCopiesOnWrite(t *testing.T) {
	impl, ok := plan.LookupUDO("NormalizeStrings")
	if !ok {
		t.Fatal("NormalizeStrings not registered")
	}
	alwaysClone := func(in data.Row) data.Row {
		out := in.Clone()
		for i, v := range out {
			if v.Kind == data.KindString {
				out[i] = data.String_(strings.ToLower(v.S))
			}
		}
		return out
	}
	cases := []struct {
		name  string
		in    data.Row
		fresh bool
	}{
		{"mixed", data.Row{data.Int(1), data.String_("Asia"), data.String_("clean"), data.Float(2.5)}, true},
		{"mixed-last", data.Row{data.String_("clean"), data.Null(), data.String_("ÀB")}, true},
		{"clean", data.Row{data.Int(2), data.String_("asia"), data.String_("x-01"), data.Bool(true)}, false},
		{"empty-string", data.Row{data.String_(""), data.Int(3)}, false},
		{"null", data.Row{data.Null(), data.Null()}, false},
		{"no-strings", data.Row{data.Int(4), data.Float(1), data.Time(time.Unix(5, 0))}, false},
		{"no-cells", data.Row{}, false},
	}
	for _, announce := range []bool{false, true} {
		ctx := &plan.EvalContext{Rand: data.NewRand(1)}
		if announce {
			ctx.ExpectRows(len(cases))
		}
		for _, c := range cases {
			before := c.in.Clone()
			var out []data.Row
			impl.Apply(c.in, func(o data.Row) { out = append(out, o) }, ctx)
			if len(out) != 1 {
				t.Fatalf("%s: %d rows emitted, want 1", c.name, len(out))
			}
			if !reflect.DeepEqual(out[0], alwaysClone(before)) {
				t.Errorf("%s: got %v, want %v", c.name, out[0], alwaysClone(before))
			}
			if !reflect.DeepEqual(c.in, before) {
				t.Errorf("%s: the input row changed to %v", c.name, c.in)
			}
			shared := len(c.in) > 0 && &out[0][0] == &c.in[0]
			if len(c.in) > 0 && shared == c.fresh {
				t.Errorf("%s (announce=%v): output shares the input row = %v, want %v", c.name, announce, shared, !c.fresh)
			}
			if c.fresh && cap(out[0]) != len(out[0]) {
				t.Errorf("%s: fresh row has len %d cap %d", c.name, len(out[0]), cap(out[0]))
			}
		}
	}
}

// TestColRefCanonicalBytes: the rendering every signature hashes is, byte for
// byte, the fmt.Sprintf("col:%s#%d") it was before it became a concatenation.
func TestColRefCanonicalBytes(t *testing.T) {
	for _, name := range []string{"", "x", "CustomerId", "MKT_segment", "Ünïcode", "a#b"} {
		for _, idx := range []int{0, 7, 10, 123456, -1} {
			c := &plan.ColRef{Name: name, Index: idx}
			want := fmt.Sprintf("col:%s#%d", strings.ToLower(name), idx)
			if got := canonical(t, c); got != want || recurring(t, c) != want {
				t.Errorf("ColRef{%q, %d}: %q / %q, want %q", name, idx, got, recurring(t, c), want)
			}
		}
	}
}

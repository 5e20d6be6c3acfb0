package exec

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"cloudviews/internal/data"
	"cloudviews/internal/obs"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
)

func TestLog2Clamp(t *testing.T) {
	cases := []struct {
		in   float64
		want float64
	}{
		{math.NaN(), 1},
		{math.Inf(-1), 1},
		{-1024, 1},
		{-1, 1},
		{0, 1},
		{0.5, 1},
		{1, 1},
		{1.999, 1},
		{2, 1},
		{4, 2},
		{1024, 10},
	}
	for _, c := range cases {
		got := log2(c.in)
		if got != c.want {
			t.Errorf("log2(%v) = %v, want %v", c.in, got, c.want)
		}
		if math.IsNaN(got) || got < 1 {
			t.Errorf("log2(%v) = %v leaked out of the clamp", c.in, got)
		}
	}
	if got := log2(math.Inf(1)); !math.IsInf(got, 1) {
		t.Errorf("log2(+Inf) = %v, want +Inf", got)
	}
}

// adversarialKeyValues are value tuples engineered to collide under naive
// separator-joined encodings.
var adversarialKeyValues = [][]data.Value{
	{data.String_("x\x003:y"), data.String_("z")},
	{data.String_("x"), data.String_("y\x003:z")},
	{data.String_("x\x00"), data.String_("3:z")},
	{data.String_("x"), data.String_("")},
	{data.String_(""), data.String_("x")},
	{data.String_("\x00"), data.String_("\x01")},
	{data.String_("\x01\x01"), data.String_("")},
	{data.String_(""), data.String_("\x01\x01")},
	{data.String_("1"), data.Int(1)},
	{data.Int(1), data.String_("1")},
	{data.Int(12), data.Int(3)},
	{data.Int(1), data.Int(23)},
	{data.Int(123)},
	{data.String_("123")},
	{data.Float(1), data.Int(1)},
	{data.Bool(true), data.String_("true")},
	{data.Time(time.Unix(0, 1234).UTC()), data.Int(1234)},
	{data.Value{}, data.String_("NULL")},
	{data.Value{}, data.Value{}},
	{data.String_("NULL"), data.Value{}},
}

func TestKeyEncodingsInjective(t *testing.T) {
	seen := map[string]int{}
	for i, vals := range adversarialKeyValues {
		var b []byte
		for _, v := range vals {
			b = appendKeyValue(b, v)
		}
		k := string(b)
		if j, dup := seen[k]; dup {
			t.Errorf("tuples %d and %d encode to the same key %q", j, i, k)
		}
		seen[k] = i
	}
}

// confusableKeys are values whose encoded keys differ only in their kind or
// are empty: Int 1 and "1", NULL and "NULL", "" and Float 1.
var confusableKeys = []data.Value{data.Int(1), data.String_("1"), {}, data.String_("NULL"), data.String_(""), data.Float(1)}

// TestGroupChainsCompareKeys drives the group table with every key hashed
// alike, so all groups share one chain of the chain index. Keys that differ
// only in their kind must still open groups of their own, a repeated key must
// find its group, and groups keep their discovery order. Through the real
// hash, enough further keys outgrow the index twice, so every group is linked
// again from its key. (The seam's hash cannot cross that: groups are linked
// again by their real hash.)
func TestGroupChainsCompareKeys(t *testing.T) {
	x := &plan.Aggregate{
		GroupBy: []plan.Expr{&plan.ColRef{Index: 0, Typ: data.KindString}},
		Aggs:    []plan.AggSpec{{Kind: plan.AggCount, Name: "n"}},
	}
	schema := data.Schema{{Name: "K"}, {Name: "n", Kind: data.KindInt}}
	many := append([]data.Value{}, confusableKeys...)
	for i := range 40 {
		many = append(many, data.Int(int64(i+2)))
	}
	key := func(v data.Value) []byte { return appendKeyValue(nil, v) }
	for _, c := range []struct {
		name string
		find func(a *aggTable, k []byte) (int32, bool)
		vals []data.Value
	}{
		{"one chain", func(a *aggTable, k []byte) (int32, bool) { return a.findHashed(k, 7) }, confusableKeys},
		{"maphash", (*aggTable).find, many},
	} {
		tbl := newAggTable(x, schema, 0, new(groupScratch))
		a := &tbl
		for pass := 0; pass < 2; pass++ {
			for i, v := range c.vals {
				gi, isNew := c.find(a, key(v))
				if gi != int32(i) || isNew != (pass == 0) {
					t.Errorf("%s, pass %d: %v (%v) found group %d (new %v), want %d (new %v)", c.name, pass, v, v.Kind, gi, isNew, i, pass == 0)
				}
			}
		}
		if c.name == "maphash" && a.index.room() < len(c.vals) {
			t.Errorf("%d groups in an index with room for %d", len(c.vals), a.index.room())
		}
		for i, v := range c.vals {
			if got := a.key(int32(i)); string(got) != string(key(v)) {
				t.Errorf("%s: group %d holds key %q, want %q", c.name, i, got, key(v))
			}
		}
		a.release()
	}
}

// TestJoinChainsCompareKeys links every build key of a join into one chain of
// the chain index, as if all their hashes collided, and probes it with every
// key: a probe pairs only the build rows whose keys equal its own, in build
// order, duplicates included.
func TestJoinChainsCompareKeys(t *testing.T) {
	var right []string
	for _, v := range append(append([]data.Value{}, confusableKeys...), confusableKeys...) {
		right = append(right, string(appendKeyValue(nil, v)))
	}
	var idx chainIndex
	idx.reset(len(right))
	for ri := len(right) - 1; ri >= 0; ri-- {
		idx.link(int32(ri), 7)
	}
	n := len(confusableKeys)
	for li, v := range confusableKeys {
		key := appendKeyValue(nil, v)
		want := []int{li, n + li} // the key's row in each copy, in build order
		// Once as a packed key, once as the row loop's key buffer.
		var packed, buffer []int
		probeChain(&idx, right, string(key), 7, li, func(_, ri int) { packed = append(packed, ri) })
		probeChain(&idx, right, key, 7, li, func(_, ri int) { buffer = append(buffer, ri) })
		for _, got := range [][]int{packed, buffer} {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v (%v) paired build rows %v, want %v", v, v.Kind, got, want)
			}
		}
	}
}

// fixedRows is a Compiled that reports rows for every node and planned no
// join.
type fixedRows float64

func (f fixedRows) ObservedRows(plan.Node) (float64, bool) { return float64(f), true }

func (fixedRows) JoinAlgo(*plan.Join) plan.JoinAlgo { return plan.JoinAuto }

// TestGroupHintIsClamped: whatever history reports and whatever the input's
// multiplier, a group table's hint lies in [0, in.len()], and only a positive,
// finite observation over a positive multiplier gives one. An exact
// observation — a RowsOut of groups × sqrt(mult), truncated — gives the groups.
func TestGroupHintIsClamped(t *testing.T) {
	grouped := &plan.Aggregate{GroupBy: []plan.Expr{&plan.ColRef{Index: 0, Typ: data.KindInt}}}
	input := func(n int, mult float64) nodeResult {
		return nodeResult{table: &data.Table{Rows: make([]data.Row, n)}, mult: mult}
	}
	specials := []float64{math.NaN(), math.Inf(-1), -5, 0, 1e-300, 0.5, 1, 4, 7, 1e6, 1e300, math.Inf(1)}
	for _, rows := range specials {
		for _, mult := range specials {
			for _, n := range []int{0, 1, 10} {
				ex := &Executor{Compiled: fixedRows(rows)}
				h := ex.groupHint(grouped, input(n, mult))
				if h < 0 || h > n {
					t.Errorf("rows %v, mult %v, %d input rows: hint %d, want it in [0, %d]", rows, mult, n, h, n)
				}
				if h > 0 && !(rows > 0 && !math.IsInf(rows, 1) && mult > 0) {
					t.Errorf("rows %v, mult %v: hint %d, want none", rows, mult, h)
				}
			}
		}
	}
	for _, c := range []struct {
		groups int
		mult   float64
	}{{5, 60000}, {3, 400}, {1, 1}, {1000, 2}, {37, 1e9}} {
		observed := float64(int64(float64(c.groups) * math.Sqrt(c.mult)))
		ex := &Executor{Compiled: fixedRows(observed)}
		if h := ex.groupHint(grouped, input(5000, c.mult)); h != c.groups {
			t.Errorf("%d groups at mult %v (RowsOut %v): hint %d", c.groups, c.mult, observed, h)
		}
	}
	if h := (&Executor{}).groupHint(grouped, input(10, 1)); h != 0 {
		t.Errorf("no history: hint %d", h)
	}
	if h := (&Executor{Compiled: fixedRows(5)}).groupHint(&plan.Aggregate{}, input(10, 1)); h != 0 {
		t.Errorf("no GROUP BY: hint %d", h)
	}
}

func cacheEntry(i int) CacheEntry {
	return CacheEntry{Table: data.NewTable(data.Schema{}), Mult: float64(i)}
}

// ObserveStores makes fn see every entry c stores, as Put stores it (under
// c's lock: fn must not call c).
func ObserveStores(c *Cache, fn func(signature.Sig, *CacheEntry)) { c.stored = fn }

// cacheOf is a result cache bounded at limit entries.
func cacheOf(limit int) *Cache {
	c := NewCache()
	c.limit = limit
	return c
}

func TestCacheLRUBoundAndEvictionOrder(t *testing.T) {
	c := cacheOf(3)
	for i := 0; i < 3; i++ {
		c.Put(signature.Sig(fmt.Sprintf("s%d", i)), cacheEntry(i))
	}
	// Touch s0 so s1 becomes the least recently used.
	if _, ok := c.Get("s0"); !ok {
		t.Fatal("s0 missing before eviction")
	}
	c.Put("s3", cacheEntry(3))
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if _, ok := c.Get("s1"); ok {
		t.Error("s1 should have been evicted (least recently used)")
	}
	for _, sig := range []signature.Sig{"s0", "s2", "s3"} {
		if _, ok := c.Get(sig); !ok {
			t.Errorf("%s unexpectedly evicted", sig)
		}
	}
}

// TestCacheFirstWriterWins: a second Put under a key does not replace the
// first entry. The cache holds entries by value, so the entry is told by what
// it holds: the first Put's table and multiplier.
func TestCacheFirstWriterWins(t *testing.T) {
	c := cacheOf(2)
	first := cacheEntry(1)
	c.Put("s", first)
	c.Put("s", cacheEntry(2))
	got, ok := c.Get("s")
	if !ok || got.Table != first.Table || got.Mult != first.Mult {
		t.Fatalf("duplicate Put replaced the original entry: got table %p mult %v, want %p mult %v", got.Table, got.Mult, first.Table, first.Mult)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestCacheEvictionMetric(t *testing.T) {
	reg := obs.NewRegistry()
	c := cacheOf(2)
	c.SetMetrics(reg)
	c.Put("a", cacheEntry(0))
	c.Put("b", cacheEntry(1))
	if _, ok := reg.Snapshot()["cloudviews_result_cache_evictions_total"]; ok {
		t.Fatal("eviction counter materialized before any eviction")
	}
	c.Put("c", cacheEntry(2))
	c.Put("d", cacheEntry(3))
	if got := reg.Snapshot()["cloudviews_result_cache_evictions_total"]; got != 2 {
		t.Fatalf("evictions counter = %v, want 2", got)
	}
}

// PoisonReleasedBuffers makes every window, join scratch and group table
// scratch be overwritten with sentinels as it goes back, for the rest of the
// test: a table that aliased a borrowed buffer then reads -1, NaN,
// "\x00poison" or true instead of its answer. The switch is this file's alone; tests of
// package exec_test reach it through here.
func PoisonReleasedBuffers(t testing.TB) {
	poisonReleased = true
	t.Cleanup(func() { poisonReleased = false })
}

// TestColumnGatheredOncePerWindow: the expressions of one operator share its
// inputCols, so a column two of them reference is validated once and gathered
// once per window, and a column none references is never read — over a table,
// over a selection of its rows and over pairs of its rows, whose columns are
// the left row's then the right row's.
func TestColumnGatheredOncePerWindow(t *testing.T) {
	schema := data.Schema{
		{Name: "A", Kind: data.KindInt},
		{Name: "B", Kind: data.KindFloat},
		{Name: "C", Kind: data.KindString},
	}
	tb := data.NewTable(schema)
	for i := 0; i < 3000; i++ {
		tb.Append(data.Row{data.Int(int64(i)), data.Float(float64(i) / 2), data.String_("c")})
	}
	tb.Rows[2999][2] = data.Null() // unreferenced: must not decline anything
	sel := nodeResult{table: tb, shape: selection}
	for i := range tb.Rows {
		if i%3 != 0 {
			sel.pos = append(sel.pos, int32(i))
		}
	}
	prs := nodeResult{table: tb, right: tb, shape: pairs}
	for i := range tb.Rows {
		prs.pos = append(prs.pos, int32(i), int32(i*7%3000))
	}
	for _, c := range []struct {
		what   string
		r      nodeResult
		b      int   // the column read as B
		unread []int // columns nothing references
	}{
		{"table", nodeResult{table: tb}, 1, []int{2}},
		{"selection", sel, 1, []int{2}},
		{"pairs", prs, 4, []int{1, 2, 3, 5}},
	} {
		a := &plan.ColRef{Index: 0, Typ: data.KindInt}
		b := &plan.ColRef{Index: c.b, Typ: data.KindFloat}
		exprs := []plan.Expr{
			&plan.Binary{Op: ">", L: a, R: &plan.Const{Val: data.Int(10)}},
			&plan.Binary{Op: "%", L: a, R: a},
			&plan.Binary{Op: "<=", L: b, R: a},
		}
		in := newInputCols(c.r, new(scratch))
		if !compileAll(in, exprs) {
			t.Fatalf("%s: the expressions did not compile", c.what)
		}
		rows, n := c.r.rows(), c.r.len()
		windows := 0
		for lo := 0; lo < n; lo += batchSize {
			w := min(batchSize, n-lo)
			roots := in.evalAll(lo, w)
			windows++
			for _, i := range []int{0, w / 2, w - 1} {
				row := rows[lo+i]
				for k, e := range exprs {
					if got, want := roots[k].value(i), e.Eval(row, nil); got != want {
						t.Fatalf("%s: row %d expr %d: kernel %v, row loop %v", c.what, lo+i, k, got, want)
					}
				}
			}
		}
		// Two referenced columns, five ColRef nodes.
		if in.gathers != 2*windows {
			t.Errorf("%s: %d gathers over %d windows of 2 referenced columns, want %d", c.what, in.gathers, windows, 2*windows)
		}
		for _, j := range c.unread {
			if in.cols[j].kind != data.KindNull {
				t.Errorf("%s: the unreferenced column %d was read", c.what, j)
			}
		}
		in.release()
	}
}

// TestWarmCompileAllocatesNothing: on a scratch that has run once, readying an
// operator's input, compiling its expressions into the scratch and evaluating
// them allocate nothing, for a filter's predicate, a projection, join keys and
// an aggregate's group keys and arguments (COUNT(*)'s nil one included). After
// release, no node, output slot, argument or field of the scratch's inputCols
// references a table or a string: a parked scratch pins nothing.
func TestWarmCompileAllocatesNothing(t *testing.T) {
	schema := data.Schema{
		{Name: "A", Kind: data.KindInt},
		{Name: "B", Kind: data.KindFloat},
		{Name: "C", Kind: data.KindString},
	}
	tb := data.NewTable(schema)
	for i := 0; i < 2500; i++ {
		tb.Append(data.Row{data.Int(int64(i)), data.Float(float64(i) / 2), data.String_(fmt.Sprint("c", i%7))})
	}
	a := &plan.ColRef{Index: 0, Typ: data.KindInt}
	b := &plan.ColRef{Index: 1, Typ: data.KindFloat}
	c := &plan.ColRef{Index: 2, Typ: data.KindString}
	filter := []plan.Expr{&plan.Binary{Op: "AND",
		L: &plan.Binary{Op: "!=", L: c, R: &plan.Const{Val: data.String_("c3")}},
		R: &plan.Binary{Op: ">=", L: b, R: &plan.Param{Name: "lo", Val: data.Int(10)}},
	}}
	project := []plan.Expr{&plan.Binary{Op: "%", L: a, R: &plan.Const{Val: data.Int(7)}}, b, c}
	joinKeys := []plan.Expr{c, &plan.Binary{Op: "=", L: a, R: a}}
	aggregate := []plan.Expr{c, nil, b, &plan.Binary{Op: "<", L: a, R: b}}
	s := new(scratch)
	run := func() {
		for _, exprs := range [][]plan.Expr{filter, project, joinKeys, aggregate} {
			in := newInputCols(nodeResult{table: tb}, s)
			if !compileAll(in, exprs) {
				t.Fatalf("%d expressions did not compile", len(exprs))
			}
			in.args = sized(in.args, len(exprs))
			for lo := 0; lo < in.n; lo += batchSize {
				for j, rc := range in.evalAll(lo, min(batchSize, in.n-lo)) {
					if rc != nil {
						in.args[j] = rc.value(0)
					}
				}
			}
			in.release()
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Errorf("a warm compile and evaluation allocated %v times, want 0", n)
	}
	in := reflect.ValueOf(s.in)
	for i := range in.NumField() {
		f, name := in.Field(i), in.Type().Field(i).Name
		switch {
		case name == "progs": // index ranges into nodes
		case f.Kind() == reflect.Slice:
			for all, j := f.Slice(0, f.Cap()), 0; j < f.Cap(); j++ {
				if !all.Index(j).IsZero() {
					t.Errorf("after release, %s[%d] of the %d kept is not zero", name, j, f.Cap())
				}
			}
		case !f.IsZero():
			t.Errorf("after release, inputCols.%s is %v", name, f)
		}
	}
}

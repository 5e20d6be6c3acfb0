package data

import "testing"

// fill writes a distinct value into every cell of r.
func fill(r Row, tag int64) {
	for i := range r {
		r[i] = Int(tag*100 + int64(i))
	}
}

func requireFilled(t *testing.T, what string, r Row, tag int64) {
	t.Helper()
	for i, v := range r {
		if v.Kind != KindInt || v.I != tag*100+int64(i) {
			t.Fatalf("%s: cell %d = %v, want %d", what, i, v, tag*100+int64(i))
		}
	}
}

// TestRowSlabRowsDoNotAlias: neighbouring slab rows share a chunk but nothing
// a caller can do to one row — write it, append to it, mutate a clone of it —
// reaches another.
func TestRowSlabRowsDoNotAlias(t *testing.T) {
	var s RowSlab
	rows := make([]Row, 40) // crosses the first (16-row) chunk boundary
	for i := range rows {
		rows[i] = s.New(3)
		if len(rows[i]) != 3 || cap(rows[i]) != 3 {
			t.Fatalf("row %d: len %d cap %d, want 3 and 3", i, len(rows[i]), cap(rows[i]))
		}
		for _, v := range rows[i] {
			if !v.IsNull() {
				t.Fatalf("row %d not zeroed: %v", i, v)
			}
		}
		fill(rows[i], int64(i))
	}
	for i, r := range rows {
		requireFilled(t, "after filling all", r, int64(i))
	}

	// Appending past a row's length must reallocate, not spill into the row
	// carved after it.
	grown := append(rows[4], String_("spill"))
	grown[0] = String_("changed")
	requireFilled(t, "row 4 after append on it", rows[4], 4)
	requireFilled(t, "row 5 after append on row 4", rows[5], 5)

	c := rows[7].Clone()
	fill(c, 99)
	requireFilled(t, "row 7 after mutating its clone", rows[7], 7)

	if z := s.New(0); z == nil || len(z) != 0 {
		t.Fatalf("New(0) = %#v, want an empty non-nil row", z)
	}
}

// TestRowSlabChunking pins the allocation shape: geometric 16 → 1024 rows
// when the count is unknown, exact when Expect announced it.
func TestRowSlabChunking(t *testing.T) {
	carve := func(expect, n int) float64 {
		return testing.AllocsPerRun(10, func() {
			var s RowSlab
			if expect > 0 {
				s.Expect(expect)
			}
			for i := 0; i < n; i++ {
				s.New(4)
			}
		})
	}
	// 16+32+64+128+256+512 = 1008 rows in six chunks.
	if got := carve(0, 1008); got != 6 {
		t.Errorf("1008 rows, count unknown: %v allocations, want 6", got)
	}
	// Chunks stop growing at 1024 rows: 1008 + 3×1024 more rows, three more.
	if got := carve(0, 1008+3*1024); got != 9 {
		t.Errorf("4080 rows, count unknown: %v allocations, want 9", got)
	}
	if got := carve(700, 700); got != 1 {
		t.Errorf("700 rows announced: %v allocations, want 1", got)
	}
	if got := carve(3000, 3000); got != 3 {
		t.Errorf("3000 rows announced: %v allocations, want 3 (1024+1024+952)", got)
	}
	// An announced count is a hint: asking for more falls back to growth.
	if got := carve(5, 5+16); got != 2 {
		t.Errorf("5 announced, 21 asked: %v allocations, want 2", got)
	}
}

// TestTableCloneShapes: Clone is a deep copy for every table shape, at a
// fixed allocation count.
func TestTableCloneShapes(t *testing.T) {
	schema := Schema{{Name: "a", Kind: KindInt}, {Name: "b", Kind: KindString}}
	full := NewTable(schema)
	for i := 0; i < 50; i++ {
		full.Append(Row{Int(int64(i)), String_("s")})
	}
	ragged := NewTable(schema)
	ragged.Rows = []Row{{Int(1), String_("x")}, {Int(2)}, {}, nil, {Int(3), String_("y"), Float(1.5)}}
	empty := NewTable(schema)
	zeroArity := NewTable(nil)
	zeroArity.Rows = []Row{{}, {}, {}}

	for name, src := range map[string]*Table{"full": full, "ragged": ragged, "empty": empty, "zero-arity": zeroArity} {
		cp := src.Clone()
		if cp.Fingerprint() != src.Fingerprint() || cp.NumRows() != src.NumRows() || cp.ByteSize() != src.ByteSize() {
			t.Fatalf("%s: clone differs from its source", name)
		}
		before := src.Fingerprint()
		for i, r := range cp.Rows {
			if len(r) != len(src.Rows[i]) || cap(r) != len(r) {
				t.Fatalf("%s: row %d: len %d cap %d, source len %d", name, i, len(r), cap(r), len(src.Rows[i]))
			}
			fill(r, 7)
			// An append on a cloned row must not reach the next cloned row.
			_ = append(r, Int(-1))
		}
		if src.Fingerprint() != before {
			t.Fatalf("%s: mutating the clone changed the source", name)
		}
		for _, r := range cp.Rows {
			requireFilled(t, name+": cloned row after appends on its neighbours", r, 7)
		}
		if len(cp.Schema) > 0 {
			cp.Schema[0].Name = "renamed"
			if src.Schema[0].Name == "renamed" {
				t.Fatalf("%s: clone shares its schema", name)
			}
		}
	}

	small := testing.AllocsPerRun(10, func() { full.Clone() })
	big := NewTable(schema)
	for i := 0; i < 5000; i++ {
		big.Append(Row{Int(int64(i)), String_("s")})
	}
	large := testing.AllocsPerRun(10, func() { big.Clone() })
	t.Logf("Table.Clone: %v allocations", large)
	if large != small || large > 4 {
		t.Errorf("Clone allocations: %v for 50 rows, %v for 5000; want equal and at most 4", small, large)
	}
}

// TestSlabOfStructs: the carver is generic — the aggregate's per-group cells
// use it — and items of any element type get the same capped capacity.
func TestSlabOfStructs(t *testing.T) {
	type cell struct {
		sum   float64
		count int64
	}
	var s Slab[cell]
	items := make([][]cell, 40)
	for i := range items {
		items[i] = s.New(2)
		if len(items[i]) != 2 || cap(items[i]) != 2 || items[i][0] != (cell{}) {
			t.Fatalf("item %d: len %d cap %d %v, want two zero cells", i, len(items[i]), cap(items[i]), items[i])
		}
		items[i][0].count, items[i][1].count = int64(i), int64(-i)
	}
	_ = append(items[3], cell{count: 1000})
	for i, it := range items {
		if it[0].count != int64(i) || it[1].count != int64(-i) {
			t.Fatalf("item %d overwritten: %v", i, it)
		}
	}
}

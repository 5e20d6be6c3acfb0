package data

import (
	"fmt"
	"sort"
	"strings"
)

// Column describes one field of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// ColumnIndex returns the position of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "name:KIND, ...".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = fmt.Sprintf("%s:%s", c.Name, c.Kind)
	}
	return strings.Join(parts, ", ")
}

// Equal reports whether two schemas are identical (names case-insensitive).
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if !strings.EqualFold(s[i].Name, o[i].Name) || s[i].Kind != o[i].Kind {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Row is one record.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// ByteSize returns the estimated serialized size of the row.
func (r Row) ByteSize() int64 {
	var n int64
	for _, v := range r {
		n += v.ByteSize()
	}
	return n
}

// String renders the row as a pipe-separated record.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// Table is an in-memory relation.
type Table struct {
	Schema Schema
	Rows   []Row
}

// NewTable creates an empty table with the given schema.
func NewTable(schema Schema) *Table {
	return &Table{Schema: schema.Clone()}
}

// Append adds a row. It panics if the arity does not match the schema; this
// indicates an engine bug, not bad user input.
func (t *Table) Append(r Row) {
	if len(r) != len(t.Schema) {
		panic(fmt.Sprintf("data: row arity %d does not match schema arity %d", len(r), len(t.Schema)))
	}
	t.Rows = append(t.Rows, r)
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return len(t.Rows) }

// ByteSize returns the estimated serialized size of all rows.
func (t *Table) ByteSize() int64 {
	var n int64
	for _, r := range t.Rows {
		n += r.ByteSize()
	}
	return n
}

// Clone deep-copies the table. All cells land in one backing array, each row
// capped at its own length, so the copy costs a fixed number of allocations
// and is as isolated from the original — and its rows from each other — as
// row-by-row clones would be.
func (t *Table) Clone() *Table {
	out := NewTable(t.Schema)
	out.Rows = make([]Row, len(t.Rows))
	cells := 0
	for _, r := range t.Rows {
		cells += len(r)
	}
	buf := make([]Value, cells)
	for i, r := range t.Rows {
		n := copy(buf, r)
		out.Rows[i] = buf[:n:n]
		buf = buf[n:]
	}
	return out
}

// Fingerprint returns a canonical string rendering of the table contents,
// independent of row order. Two tables with identical multisets of rows have
// identical fingerprints.
func (t *Table) Fingerprint() string {
	lines := make([]string, len(t.Rows))
	for i, r := range t.Rows {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	return t.Schema.String() + "\n" + strings.Join(lines, "\n")
}

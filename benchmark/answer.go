package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"cloudviews/internal/data"
)

// answer is a job's result as the checker sees it: the row count, and the
// rendered cells unless there are more rows than the HTTP protocol returns
// inline, in which case the count alone identifies it.
type answer struct {
	rows  int
	cells [][]string
}

// floatTolerance is the relative difference two float cells may show. The
// live system and the reference hold different run-time history, so their
// optimizers may pick different join algorithms; rows then reach a SUM or AVG
// in another order, and float addition is not associative. Observed
// differences are in the 15th digit.
const floatTolerance = 1e-9

// tableAnswer renders t. limit >= 0 drops the cells of a table with more than
// limit rows.
func tableAnswer(t *data.Table, limit int) answer {
	if t == nil {
		return answer{}
	}
	a := answer{rows: t.NumRows()}
	if limit >= 0 && a.rows > limit {
		return a
	}
	a.cells = make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		cells := make([]string, len(row))
		for k, v := range row {
			cells[k] = v.String()
		}
		a.cells[i] = cells
	}
	return a
}

// sortKey orders rows independently of the order a plan produced them in.
// Floats enter the key rounded, so two renderings of one row that differ in
// the last digits sort to the same place.
func sortKey(row []string) string {
	var b strings.Builder
	for _, c := range row {
		if f, err := strconv.ParseFloat(c, 64); err == nil && strings.ContainsAny(c, ".e") {
			c = strconv.FormatFloat(f, 'g', 6, 64)
		}
		b.WriteString(c)
		b.WriteByte(0)
	}
	return b.String()
}

func sortedRows(cells [][]string) [][]string {
	type keyed struct {
		key string
		row []string
	}
	rows := make([]keyed, len(cells))
	for i, r := range cells {
		rows[i] = keyed{sortKey(r), r}
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].key < rows[b].key })
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = r.row
	}
	return out
}

// diff returns nil when a and b hold the same multiset of rows, float cells
// compared within floatTolerance, and otherwise what differs first.
func (a answer) diff(b answer) error {
	if a.rows != b.rows {
		return fmt.Errorf("%d rows, want %d", a.rows, b.rows)
	}
	if len(a.cells) != len(b.cells) {
		return fmt.Errorf("%d rendered rows, want %d", len(a.cells), len(b.cells))
	}
	ra, rb := sortedRows(a.cells), sortedRows(b.cells)
	for i := range ra {
		if len(ra[i]) != len(rb[i]) {
			return fmt.Errorf("row %d: %d cells, want %d", i, len(ra[i]), len(rb[i]))
		}
		for k := range ra[i] {
			if !sameCell(ra[i][k], rb[i][k]) {
				return fmt.Errorf("row %d: %q, want %q", i, strings.Join(ra[i], "|"), strings.Join(rb[i], "|"))
			}
		}
	}
	return nil
}

func sameCell(a, b string) bool {
	if a == b {
		return true
	}
	fa, erra := strconv.ParseFloat(a, 64)
	fb, errb := strconv.ParseFloat(b, 64)
	if erra != nil || errb != nil {
		return false
	}
	return math.Abs(fa-fb) <= floatTolerance*math.Max(math.Abs(fa), math.Abs(fb))
}

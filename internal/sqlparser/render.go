package sqlparser

import (
	"fmt"
	"strings"
)

// Render pretty-prints a script back to dialect text. The output re-parses to
// an equivalent AST (round-trip property, tested), which makes it usable for
// the debugging flows around annotation files and incident repro.
func Render(s *Script) string {
	var b strings.Builder
	for _, st := range s.Stmts {
		st.renderStmt(&b)
	}
	return b.String()
}

// RenderQuery prints one query expression.
func RenderQuery(q QueryExpr) string {
	var b strings.Builder
	q.renderQuery(&b)
	return b.String()
}

func (s *AssignStmt) renderStmt(b *strings.Builder) {
	b.WriteString(s.Name + " = ")
	s.Query.renderQuery(b)
	b.WriteString(";\n")
}

func (s *OutputStmt) renderStmt(b *strings.Builder) {
	b.WriteString("OUTPUT (")
	s.Source.renderQuery(b)
	fmt.Fprintf(b, ") TO %q;\n", s.Target)
}

func (q *SelectQuery) renderQuery(b *strings.Builder) {
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range q.Items {
		listItem(b, i, "")
		if it.Star {
			b.WriteString("*")
			continue
		}
		b.WriteString(it.Expr.String())
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	b.WriteString(" FROM ")
	q.From.renderTableRef(b)
	for _, j := range q.Joins {
		b.WriteString(" JOIN ")
		j.Right.renderTableRef(b)
		if j.On != nil {
			b.WriteString(" ON " + j.On.String())
		}
	}
	if q.Where != nil {
		b.WriteString(" WHERE " + q.Where.String())
	}
	for i, g := range q.GroupBy {
		listItem(b, i, " GROUP BY ")
		b.WriteString(g.String())
	}
	if q.Having != nil {
		b.WriteString(" HAVING " + q.Having.String())
	}
	for i, o := range q.OrderBy {
		listItem(b, i, " ORDER BY ")
		b.WriteString(o.Expr.String())
		if o.Desc {
			b.WriteString(" DESC")
		}
	}
	if q.SamplePercent > 0 {
		fmt.Fprintf(b, " SAMPLE %g PERCENT", q.SamplePercent)
	}
}

func (q *ProcessQuery) renderQuery(b *strings.Builder) {
	b.WriteString("PROCESS ")
	q.Source.renderTableRef(b)
	fmt.Fprintf(b, " USING %q", q.Udo)
	for i, d := range q.Depends {
		listItem(b, i, " DEPENDS ")
		fmt.Fprintf(b, "%q", d)
	}
	if q.Nondeterministic {
		b.WriteString(" NONDETERMINISTIC")
	}
}

func (q *UnionQuery) renderQuery(b *strings.Builder) {
	q.Left.renderQuery(b)
	b.WriteString(" UNION ALL ")
	q.Right.renderQuery(b)
}

func (r *NamedRef) renderTableRef(b *strings.Builder) {
	b.WriteString(r.Name)
	if r.Alias != "" && r.Alias != r.Name {
		b.WriteString(" AS " + r.Alias)
	}
}

func (r *SubqueryRef) renderTableRef(b *strings.Builder) {
	b.WriteString("(")
	r.Query.renderQuery(b)
	b.WriteString(")")
	if r.Alias != "" {
		b.WriteString(" AS " + r.Alias)
	}
}

// listItem starts the i-th item of a comma-separated list that head opens.
func listItem(b *strings.Builder, i int, head string) {
	if i == 0 {
		b.WriteString(head)
	} else {
		b.WriteString(", ")
	}
}

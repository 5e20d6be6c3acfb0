package sqlparser

import (
	"fmt"
	"strings"
)

// Script is a full SCOPE-like job script: a sequence of statements ending in
// one or more OUTPUT statements.
type Script struct {
	Stmts []Stmt
}

// Stmt is any top-level statement. Its one method writes the statement's
// dialect text (render.go), which also seals the interface to this package.
type Stmt interface{ renderStmt(b *strings.Builder) }

// AssignStmt binds a rowset-valued expression to a name: `name = SELECT ...;`
// or `name = PROCESS src USING "Udo";`.
type AssignStmt struct {
	Name  string
	Query QueryExpr
}

// OutputStmt writes a named rowset (or inline query) to a target stream:
// `OUTPUT name TO "stream";`.
type OutputStmt struct {
	Source QueryExpr
	Target string
}

// QueryExpr is any rowset-valued expression; its one method writes its text.
type QueryExpr interface{ renderQuery(b *strings.Builder) }

// SelectQuery is the workhorse: SELECT ... FROM ... JOIN ... WHERE ...
// GROUP BY ... HAVING ...
type SelectQuery struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	// SamplePercent, if >0, applies `SAMPLE n PERCENT` semantics (§5.6).
	SamplePercent float64
	// OrderBy sorts the output (applied after grouping/sampling).
	OrderBy []OrderItem
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// NamedRef refers to a dataset or a previously assigned rowset by name.
type NamedRef struct {
	Name  string
	Alias string
}

// SubqueryRef is a parenthesized query used as a table source.
type SubqueryRef struct {
	Query QueryExpr
	Alias string
}

// ProcessQuery applies a user-defined operator to a source rowset:
// `PROCESS src USING "MyUdo" (DEPENDS "libA","libB") (NONDETERMINISTIC)`.
type ProcessQuery struct {
	Source           TableRef
	Udo              string
	Depends          []string
	Nondeterministic bool
}

// UnionQuery is `a UNION ALL b`.
type UnionQuery struct {
	Left, Right QueryExpr
}

// TableRef is a FROM-clause source; its one method writes its text.
type TableRef interface{ renderTableRef(b *strings.Builder) }

// JoinClause is one JOIN ... ON ... attached to a SelectQuery.
type JoinClause struct {
	Right TableRef
	On    Expr
}

// SelectItem is one projected expression with an optional alias. A bare `*`
// is represented by Star.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// Expr is a scalar expression node.
type Expr interface {
	// String renders a canonical textual form used in error messages and
	// debugging; signatures use their own normalization in internal/plan.
	String() string
}

// ColumnRef references a column, optionally qualified: `t.Col` or `Col`.
type ColumnRef struct {
	Qualifier string
	Name      string
}

// Literal is a constant.
type Literal struct {
	// Exactly one of the following is meaningful, per Kind.
	Kind   LitKind
	Int    int64
	Float  float64
	Str    string
	BoolV  bool
	IsNull bool
}

// LitKind tags Literal.
type LitKind uint8

const (
	LitInt LitKind = iota
	LitFloat
	LitString
	LitBool
	LitNull
)

// ParamRef is a named query parameter `@name`, bound at submission time.
// Parameters are the time-varying attributes that recurring signatures
// discard.
type ParamRef struct {
	Name string
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op          string // one of + - * / % = != < <= > >= AND OR LIKE
	Left, Right Expr
}

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op   string // NOT or -
	Expr Expr
}

// FuncCall is a function application: aggregates (SUM, AVG, COUNT, MIN, MAX)
// or scalar functions (YEAR, LOWER, ABS, ...), including the non-
// deterministic ones the paper calls out (NOW, NEWGUID, RANDOM).
type FuncCall struct {
	Name string // upper-cased
	Args []Expr
	// Star marks COUNT(*).
	Star bool
}

func (c *ColumnRef) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

func (l *Literal) String() string {
	switch l.Kind {
	case LitInt:
		return fmt.Sprintf("%d", l.Int)
	case LitFloat:
		return fmt.Sprintf("%g", l.Float)
	case LitString:
		return "'" + strings.ReplaceAll(l.Str, "'", "''") + "'"
	case LitBool:
		return fmt.Sprintf("%t", l.BoolV)
	case LitNull:
		return "NULL"
	default:
		return "?"
	}
}

func (p *ParamRef) String() string { return "@" + p.Name }

func (b *BinaryExpr) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

func (u *UnaryExpr) String() string {
	if u.Op == "NOT" {
		return "(NOT " + u.Expr.String() + ")"
	}
	return "(" + u.Op + u.Expr.String() + ")"
}

func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return f.Name + "(" + strings.Join(args, ", ") + ")"
}

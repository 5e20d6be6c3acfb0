package plan

import (
	"fmt"
	"strconv"
	"strings"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/sqlparser"
)

// Binder turns parsed scripts into bound logical plans against a catalog.
type Binder struct {
	Catalog *catalog.Catalog
	// Params binds @name parameters at submission time. These are the
	// time-varying attributes recurring signatures discard.
	Params map[string]data.Value

	// env holds the named intermediate rowsets bound so far, in script
	// order; a name matches case-insensitively and its last binding wins.
	env []named

	// resolved memoizes the dataset version each name bound to, so a script
	// that references the same dataset several times sees ONE version even
	// if a concurrent bulk update publishes a newer one mid-bind (snapshot
	// consistency for a single compilation).
	resolved map[string]*catalog.Version
}

// named is one intermediate rowset of a script.
type named struct {
	name string
	node Node
	used bool
}

// use returns the plan of the rowset last bound to name, if any: the bound
// plan itself at its first reference and a copy at every later one, so a
// script's plans stay trees.
func (b *Binder) use(name string) (Node, bool) {
	for i := len(b.env) - 1; i >= 0; i-- {
		if e := &b.env[i]; equalLower(e.name, name) {
			if e.used {
				return CloneNode(e.node), true
			}
			e.used = true
			return e.node, true
		}
	}
	return nil, false
}

// BindScript binds a full script and returns the Output roots, in script
// order. A script must contain at least one OUTPUT statement.
func (b *Binder) BindScript(s *sqlparser.Script) ([]*Output, error) {
	b.env = b.env[:0]
	var outs []*Output
	for _, st := range s.Stmts {
		switch stmt := st.(type) {
		case *sqlparser.AssignStmt:
			n, err := b.BindQuery(stmt.Query)
			if err != nil {
				return nil, fmt.Errorf("binding %s: %w", stmt.Name, err)
			}
			b.env = append(b.env, named{name: stmt.Name, node: n})
		case *sqlparser.OutputStmt:
			n, err := b.BindQuery(stmt.Source)
			if err != nil {
				return nil, fmt.Errorf("binding OUTPUT %s: %w", stmt.Target, err)
			}
			outs = append(outs, &Output{Target: stmt.Target, Child: n})
		default:
			return nil, fmt.Errorf("unsupported statement %T", st)
		}
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("script has no OUTPUT statement")
	}
	return outs, nil
}

// BindQuery binds a single query expression.
func (b *Binder) BindQuery(q sqlparser.QueryExpr) (Node, error) {
	switch query := q.(type) {
	case *sqlparser.SelectQuery:
		return b.bindSelect(query)
	case *sqlparser.ProcessQuery:
		child, _, err := b.bindTableRef(query.Source)
		if err != nil {
			return nil, err
		}
		impl, ok := LookupUDO(query.Udo)
		if !ok {
			return nil, fmt.Errorf("unknown UDO %q", query.Udo)
		}
		nondet := query.Nondeterministic || !impl.Deterministic
		return &UDO{
			Name: query.Udo, Depends: query.Depends, Nondet: nondet, Child: child,
			Out: impl.OutSchema(child.Schema()),
		}, nil
	case *sqlparser.UnionQuery:
		l, err := b.BindQuery(query.Left)
		if err != nil {
			return nil, err
		}
		r, err := b.BindQuery(query.Right)
		if err != nil {
			return nil, err
		}
		if !l.Schema().Equal(r.Schema()) {
			return nil, fmt.Errorf("UNION ALL schema mismatch: (%s) vs (%s)", l.Schema(), r.Schema())
		}
		return &Union{L: l, R: r}, nil
	default:
		return nil, fmt.Errorf("unsupported query expression %T", q)
	}
}

// scopeEntry is one visible column during binding. Names are kept as
// written and compared case-insensitively.
type scopeEntry struct {
	qual string
	name string
	kind data.Kind
}

// scope is the columns visible during binding, in row order.
type scope []scopeEntry

// with returns a new scope of s's columns followed by schema's under qual.
func (s scope) with(schema data.Schema, qual string) scope {
	out := append(make(scope, 0, len(s)+len(schema)), s...)
	for _, c := range schema {
		out = append(out, scopeEntry{qual: qual, name: c.Name, kind: c.Kind})
	}
	return out
}

// resolve finds the unique column matching (qual, name), both compared as
// strings.ToLower has them; an error names them lower-cased.
func (s scope) resolve(qual, name string) (int, data.Kind, error) {
	found := -1
	var kind data.Kind
	for i, c := range s {
		if !equalLower(c.name, name) {
			continue
		}
		if qual != "" && !equalLower(c.qual, qual) {
			continue
		}
		if found >= 0 {
			return 0, 0, fmt.Errorf("ambiguous column %q", strings.ToLower(name))
		}
		found, kind = i, c.kind
	}
	if found < 0 {
		if qual != "" {
			return 0, 0, fmt.Errorf("unknown column %q.%q", strings.ToLower(qual), strings.ToLower(name))
		}
		return 0, 0, fmt.Errorf("unknown column %q", strings.ToLower(name))
	}
	return found, kind, nil
}

// bindTableRef binds a FROM source and returns the qualifier its columns
// are visible under.
func (b *Binder) bindTableRef(ref sqlparser.TableRef) (Node, string, error) {
	switch r := ref.(type) {
	case *sqlparser.NamedRef:
		qual := r.Alias
		if qual == "" {
			qual = r.Name
		}
		// Named intermediate rowset?
		if n, ok := b.use(r.Name); ok {
			return n, qual, nil
		}
		// Catalog dataset: a scan reads the latest readable version, always.
		ver, ok := b.resolved[r.Name]
		if !ok {
			var err error
			ver, err = b.Catalog.Latest(r.Name)
			if err != nil {
				return nil, "", err
			}
			if b.resolved == nil {
				b.resolved = make(map[string]*catalog.Version)
			}
			b.resolved[r.Name] = ver
		}
		ds, _ := b.Catalog.Dataset(r.Name)
		scan := &Scan{
			Dataset:  ds.Name,
			GUID:     ver.GUID,
			Out:      ds.Schema.Clone(),
			BaseRows: ScanBaseRows(ds, ver),
		}
		return scan, qual, nil
	case *sqlparser.SubqueryRef:
		n, err := b.BindQuery(r.Query)
		return n, r.Alias, err
	default:
		return nil, "", fmt.Errorf("unsupported table reference %T", ref)
	}
}

// ScanBaseRows is a scan's LOGICAL cardinality (physical rows times the
// dataset scale factor) so compile-time estimates line up with the executor's
// scaled accounting.
func ScanBaseRows(ds *catalog.Dataset, ver *catalog.Version) int64 {
	return int64(float64(ver.Table.NumRows()) * ds.EffectiveScale())
}

var aggNames = map[string]AggKind{
	"SUM": AggSum, "AVG": AggAvg, "COUNT": AggCount, "MIN": AggMin, "MAX": AggMax,
}

func isAggCall(e sqlparser.Expr) (*sqlparser.FuncCall, bool) {
	fc, ok := e.(*sqlparser.FuncCall)
	if !ok {
		return nil, false
	}
	_, isAgg := aggNames[fc.Name]
	return fc, isAgg
}

func containsAgg(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.FuncCall:
		if _, ok := aggNames[x.Name]; ok {
			return true
		}
		for _, a := range x.Args {
			if containsAgg(a) {
				return true
			}
		}
	case *sqlparser.BinaryExpr:
		return containsAgg(x.Left) || containsAgg(x.Right)
	case *sqlparser.UnaryExpr:
		return containsAgg(x.Expr)
	}
	return false
}

func (b *Binder) bindSelect(q *sqlparser.SelectQuery) (Node, error) {
	if q.From == nil {
		return nil, fmt.Errorf("SELECT without FROM")
	}
	node, qual, err := b.bindTableRef(q.From)
	if err != nil {
		return nil, err
	}
	// The columns expressions bind against; a bare SELECT * binds none.
	var sc scope
	if len(q.Joins) > 0 || q.Where != nil || len(q.GroupBy) > 0 || len(q.Items) != 1 || !q.Items[0].Star {
		sc = sc.with(node.Schema(), qual)
	}

	// Joins.
	for _, jc := range q.Joins {
		right, rightQual, err := b.bindTableRef(jc.Right)
		if err != nil {
			return nil, err
		}
		leftWidth := len(sc)
		combined := sc.with(right.Schema(), rightQual)
		join := &Join{L: node, R: right}
		if jc.On != nil {
			conjuncts := splitConjuncts(jc.On)
			var residuals []sqlparser.Expr
			for _, c := range conjuncts {
				le, re, ok, err := b.tryEquiKey(c, combined, leftWidth)
				if err != nil {
					return nil, err
				}
				if ok {
					join.LeftKeys = append(join.LeftKeys, le)
					join.RightKeys = append(join.RightKeys, re)
				} else {
					residuals = append(residuals, c)
				}
			}
			if len(residuals) > 0 {
				res, err := b.bindExpr(joinConjuncts(residuals), combined)
				if err != nil {
					return nil, err
				}
				join.Residual = res
			}
		}
		node, sc = join, combined
	}

	// WHERE.
	if q.Where != nil {
		pred, err := b.bindExpr(q.Where, sc)
		if err != nil {
			return nil, err
		}
		node = &Filter{Pred: pred, Child: node}
	}

	// Grouping / projection.
	hasAgg := len(q.GroupBy) > 0
	for _, it := range q.Items {
		if !it.Star && containsAgg(it.Expr) {
			hasAgg = true
		}
	}

	if hasAgg {
		node, err = b.bindGrouped(q, node, sc)
	} else {
		node, err = b.bindProjection(q.Items, node, sc)
	}
	if err != nil {
		return nil, err
	}

	if q.Distinct {
		// DISTINCT = group by all output columns.
		schema := node.Schema()
		groups := make([]Expr, len(schema))
		names := make([]string, len(schema))
		for i, c := range schema {
			groups[i] = &ColRef{Index: i, Name: c.Name, Typ: c.Kind}
			names[i] = c.Name
		}
		node = NewAggregate(groups, names, nil, node)
	}

	if q.SamplePercent > 0 {
		node = &Sample{Percent: q.SamplePercent, Child: node}
	}
	if len(q.OrderBy) > 0 {
		// ORDER BY binds against the output schema (aliases visible).
		outScope := scope(nil).with(node.Schema(), "")
		srt := &Sort{Child: node}
		for _, item := range q.OrderBy {
			e, err := b.bindExpr(item.Expr, outScope)
			if err != nil {
				return nil, fmt.Errorf("binding ORDER BY: %w", err)
			}
			srt.Keys = append(srt.Keys, e)
			srt.Desc = append(srt.Desc, item.Desc)
		}
		node = srt
	}
	return node, nil
}

// bindProjection handles the non-aggregated select list.
func (b *Binder) bindProjection(items []sqlparser.SelectItem, node Node, sc scope) (Node, error) {
	// Pure `SELECT *` introduces no Project node.
	if len(items) == 1 && items[0].Star {
		return node, nil
	}
	var exprs []Expr
	var names []string
	schema := node.Schema()
	for i, it := range items {
		if it.Star {
			for j, c := range schema {
				exprs = append(exprs, &ColRef{Index: j, Name: c.Name, Typ: c.Kind})
				names = append(names, c.Name)
			}
			continue
		}
		e, err := b.bindExpr(it.Expr, sc)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		names = append(names, deriveName(it, e, i))
	}
	return &Project{Exprs: exprs, Names: names, Child: node}, nil
}

// bindGrouped handles GROUP BY / aggregate select lists, producing an
// Aggregate node followed (when necessary) by a reordering Project.
func (b *Binder) bindGrouped(q *sqlparser.SelectQuery, node Node, sc scope) (Node, error) {
	groupBy := make([]Expr, 0, len(q.GroupBy))
	groupNames := make([]string, 0, len(q.GroupBy))
	aggs := make([]AggSpec, 0, len(q.Items))

	// Bind group-by expressions.
	for _, g := range q.GroupBy {
		e, err := b.bindExpr(g, sc)
		if err != nil {
			return nil, err
		}
		name := ""
		if cr, ok := e.(*ColRef); ok {
			name = cr.Name
		} else {
			name = "group_" + strconv.Itoa(len(groupBy))
		}
		groupBy = append(groupBy, e)
		groupNames = append(groupNames, name)
	}

	// Walk the select list: each item is a group expression or an aggregate
	// call. outputIndex maps the select order to the aggregate output schema.
	type outputRef struct {
		pos  int // position in Aggregate output schema
		name string
	}
	outputs := make([]outputRef, 0, len(q.Items))
	for i, it := range q.Items {
		if it.Star {
			return nil, fmt.Errorf("SELECT * cannot be combined with GROUP BY")
		}
		if fc, ok := isAggCall(it.Expr); ok {
			spec := AggSpec{Kind: aggNames[fc.Name]}
			if fc.Star {
				if spec.Kind != AggCount {
					return nil, fmt.Errorf("%s(*) is not supported", fc.Name)
				}
			} else {
				if len(fc.Args) != 1 {
					return nil, fmt.Errorf("%s expects exactly one argument", fc.Name)
				}
				arg, err := b.bindExpr(fc.Args[0], sc)
				if err != nil {
					return nil, err
				}
				spec.Arg = arg
			}
			spec.Name = deriveName(it, nil, i)
			if spec.Name == "" || strings.HasPrefix(spec.Name, "col_") {
				spec.Name = strings.ToLower(fc.Name) + "_" + strconv.Itoa(len(aggs))
			}
			pos := len(groupBy) + len(aggs)
			aggs = append(aggs, spec)
			outputs = append(outputs, outputRef{pos: pos, name: spec.Name})
			continue
		}
		if containsAgg(it.Expr) {
			return nil, fmt.Errorf("expressions over aggregates are not supported: %s", it.Expr.String())
		}
		e, err := b.bindExpr(it.Expr, sc)
		if err != nil {
			return nil, err
		}
		// The last group key rendering as e does.
		pos := len(groupBy) - 1
		for pos >= 0 && compareCanonical(groupBy[pos], e) != 0 {
			pos--
		}
		if pos < 0 {
			return nil, fmt.Errorf("select item %s is neither aggregated nor in GROUP BY", it.Expr.String())
		}
		name := deriveName(it, e, i)
		if it.Alias != "" {
			groupNames[pos] = it.Alias
		}
		outputs = append(outputs, outputRef{pos: pos, name: name})
	}

	agg := NewAggregate(groupBy, groupNames, aggs, node)
	var result Node = agg
	aggSchema := agg.Out

	// HAVING filters over the aggregate output.
	if q.Having != nil {
		havingScope := scope(nil).with(aggSchema, "")
		pred, err := b.bindExpr(q.Having, havingScope)
		if err != nil {
			return nil, fmt.Errorf("binding HAVING: %w", err)
		}
		result = &Filter{Pred: pred, Child: result}
	}

	// Reordering projection when select order differs from aggregate layout.
	needProject := len(outputs) != len(aggSchema)
	for i, o := range outputs {
		if o.pos != i || !strings.EqualFold(o.name, aggSchema[o.pos].Name) {
			needProject = true
		}
	}
	if needProject {
		exprs := make([]Expr, len(outputs))
		names := make([]string, len(outputs))
		for i, o := range outputs {
			exprs[i] = &ColRef{Index: o.pos, Name: aggSchema[o.pos].Name, Typ: aggSchema[o.pos].Kind}
			names[i] = o.name
		}
		result = &Project{Exprs: exprs, Names: names, Child: result}
	}
	return result, nil
}

// deriveName picks an output column name for a select item.
func deriveName(it sqlparser.SelectItem, bound Expr, pos int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok {
		return cr.Name
	}
	if bound != nil {
		if cr, ok := bound.(*ColRef); ok {
			return cr.Name
		}
	}
	if fc, ok := it.Expr.(*sqlparser.FuncCall); ok {
		return strings.ToLower(fc.Name)
	}
	return fmt.Sprintf("col_%d", pos)
}

// splitConjuncts flattens a chain of ANDs.
func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []sqlparser.Expr{e}
}

func joinConjuncts(es []sqlparser.Expr) sqlparser.Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = &sqlparser.BinaryExpr{Op: "AND", Left: out, Right: e}
	}
	return out
}

// tryEquiKey checks whether conjunct is `leftExpr = rightExpr` with the two
// sides referencing disjoint join inputs; on success it returns the left key
// (bound to the combined scope) and the right key rebased to the right
// child's local schema.
func (b *Binder) tryEquiKey(conjunct sqlparser.Expr, combined scope, leftWidth int) (Expr, Expr, bool, error) {
	be, ok := conjunct.(*sqlparser.BinaryExpr)
	if !ok || be.Op != "=" {
		return nil, nil, false, nil
	}
	l, err := b.bindExpr(be.Left, combined)
	if err != nil {
		return nil, nil, false, err
	}
	r, err := b.bindExpr(be.Right, combined)
	if err != nil {
		return nil, nil, false, err
	}
	ls, rs := JoinSides(l, leftWidth), JoinSides(r, leftWidth)
	switch {
	case ls == 1 && rs == 2:
		return l, ShiftColumns(r, leftWidth), true, nil
	case ls == 2 && rs == 1:
		return r, ShiftColumns(l, leftWidth), true, nil
	default:
		return nil, nil, false, nil
	}
}

// bindExpr lowers a parsed scalar expression against a scope.
func (b *Binder) bindExpr(e sqlparser.Expr, sc scope) (Expr, error) {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		idx, kind, err := sc.resolve(x.Qualifier, x.Name)
		if err != nil {
			return nil, err
		}
		return &ColRef{Index: idx, Name: x.Name, Typ: kind}, nil
	case *sqlparser.Literal:
		switch x.Kind {
		case sqlparser.LitInt:
			return &Const{Val: data.Int(x.Int)}, nil
		case sqlparser.LitFloat:
			return &Const{Val: data.Float(x.Float)}, nil
		case sqlparser.LitString:
			return &Const{Val: data.String_(x.Str)}, nil
		case sqlparser.LitBool:
			return &Const{Val: data.Bool(x.BoolV)}, nil
		case sqlparser.LitNull:
			return &Const{Val: data.Null()}, nil
		}
		return nil, fmt.Errorf("unknown literal kind")
	case *sqlparser.ParamRef:
		v, ok := b.Params[x.Name]
		if !ok {
			return nil, fmt.Errorf("unbound parameter @%s", x.Name)
		}
		return &Param{Name: x.Name, Val: v}, nil
	case *sqlparser.BinaryExpr:
		l, err := b.bindExpr(x.Left, sc)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(x.Right, sc)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: x.Op, L: l, R: r}, nil
	case *sqlparser.UnaryExpr:
		inner, err := b.bindExpr(x.Expr, sc)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: x.Op, E: inner}, nil
	case *sqlparser.FuncCall:
		if _, isAgg := aggNames[x.Name]; isAgg {
			return nil, fmt.Errorf("aggregate %s in scalar context", x.Name)
		}
		if !KnownFunc(x.Name) {
			return nil, fmt.Errorf("unknown function %s", x.Name)
		}
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			bound, err := b.bindExpr(a, sc)
			if err != nil {
				return nil, err
			}
			args[i] = bound
		}
		return &Call{Name: strings.ToUpper(x.Name), Args: args}, nil
	default:
		return nil, fmt.Errorf("unsupported expression %T", e)
	}
}

// CloneNode deep-copies a plan tree. Expressions are immutable after binding
// and may be shared between copies.
func CloneNode(n Node) Node {
	var buf [2]Node
	in := Inputs(n, &buf)
	for i, c := range in {
		in[i] = CloneNode(c)
	}
	return WithInputs(n, in)
}

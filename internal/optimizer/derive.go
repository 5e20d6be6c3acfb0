package optimizer

import (
	"bytes"
	"math"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
)

// boundParams lists a bound script's parameter references. It reads the root
// as bound, not as normalized: folding can drop a conjunct and the parameter
// in it, and binding still demands that parameter of every job.
func boundParams(root plan.Node) (out []plan.Param) {
	visit := func(x plan.Expr) {
		if p, ok := x.(*plan.Param); ok {
			out = append(out, *p)
		}
	}
	plan.Walk(root, func(n plan.Node) {
		var buf [8]plan.Expr
		for _, e := range plan.Exprs(n, buf[:0]) {
			e.Walk(visit)
		}
	})
	return out
}

// BoundTo reports whether p was built with the values params gives the
// script's parameters. Values are compared field by field, not with
// Value.Equal, which equates Int(3) and Float(3): they render, and so sign,
// differently.
func (p *Prepared) BoundTo(params map[string]data.Value) bool {
	for i := range p.params {
		v, ok := params[p.params[i].Name]
		w := p.params[i].Val
		if !ok || v.Kind != w.Kind || v.I != w.I || math.Float64bits(v.F) != math.Float64bits(w.F) || v.S != w.S || v.B != w.B {
			return false
		}
	}
	return true
}

// shape works out p.hazard and p.attrs, once. A rendering is kept where strict
// and recurring attributes agree — nothing a job brings with it, no GUID and no
// parameter value, is rendered — and for an Output: its target is the script's.
func (p *Prepared) shape() (hazard bool, attrs []string) {
	p.shapeOnce.Do(func() {
		p.attrs = make([]string, len(p.Subs))
		for i := range p.Subs {
			n := p.Subs[i].Node
			var sb, rb [256]byte
			strict := plan.AppendAttrs(sb[:0], n, false)
			if _, isOutput := n.(*plan.Output); isOutput || bytes.Equal(strict, plan.AppendAttrs(rb[:0], n, true)) {
				p.attrs[i] = string(strict)
			}
			for _, e := range plan.Exprs(n, nil) {
				p.hazard = p.hazard || len(p.params) > 0 && plan.ParamOrderHazard(e)
			}
		}
	})
	return p.hazard, p.attrs
}

// rebound returns n, a node of a template, with every Param among its
// expressions bound to its value in vals: a copy, unless n holds no expression.
func rebound(n plan.Node, vals map[string]data.Value) plan.Node {
	es := plan.Exprs(n, nil)
	if len(es) == 0 {
		return n
	}
	bind := func(x plan.Expr) {
		if p, ok := x.(*plan.Param); ok {
			p.Val = vals[p.Name]
		}
	}
	for i, e := range es {
		es[i] = plan.CloneExpr(e) // the template's expressions are shared
		es[i].Walk(bind)
	}
	return plan.WithExprs(n, es)
}

// Derive returns the Prepared a cold parse, bind and Prepare of t's script
// would build against cat as it stands and params, without doing any of the
// three. Between two submissions of a script only the version each Scan reads
// (GUID, BaseRows), the value each Param carries and the strict signatures,
// which hash those, can move. The rest is a function of the script's text, its
// datasets' schemas (immutable: Define rejects another, BulkUpdate a mismatch,
// nothing deletes a dataset), its parameters' kinds and the signer: Rewrite
// reads no catalog state and orders nothing by a parameter's value
// (plan.ParamOrderHazard). So t's nodes are copied shallowly, a Scan takes the
// latest readable version, expressions holding a Param are rebuilt around the
// new value, and the strict signatures are hashed again bottom-up (every node
// sits above a Scan), from t's rendered attributes where they cannot have
// moved them; all else is t's, which is only read.
//
// Derive returns nil when it cannot answer — a parameter missing or of another
// kind than t's, a dataset with no readable version, an ordering hazard — and
// the caller compiles cold, which reports the error if there is one.
func (o *Optimizer) Derive(t *Prepared, cat *catalog.Catalog, params map[string]data.Value) *Prepared {
	hazard, rendered := t.shape()
	if hazard {
		return nil
	}
	n := len(t.Subs)
	d := &Prepared{Subs: make([]signature.Subexpr, n), Tag: t.Tag, index: make(map[plan.Node]int, n)}
	d.params = make([]plan.Param, len(t.params))
	for i, p := range t.params {
		v, ok := params[p.Name]
		if !ok || v.Kind != p.Val.Kind {
			return nil
		}
		d.params[i] = plan.Param{Name: p.Name, Val: v}
	}
	copy(d.Subs, t.Subs)
	for i := range t.Subs {
		// Subs is in post-order: the last input of node i is node i-1, and a
		// first of two sits before the whole subtree of the second.
		var buf [2]plan.Node
		var strict [2]signature.Sig
		in := plan.Inputs(t.Subs[i].Node, &buf)
		for k := range in {
			c := i - 1
			if k == 0 && len(in) == 2 {
				c -= t.Subs[c].NodeCount
			}
			in[k], strict[k] = d.Subs[c].Node, d.Subs[c].Strict
		}
		attrs, m := rendered[i], t.Subs[i].Node
		if attrs == "" {
			m = rebound(m, params)
		}
		m = m.WithChildren(in)
		if sc, ok := m.(*plan.Scan); ok {
			// One version per dataset however often the script scans it, as
			// the binder resolves them.
			var same *plan.Scan
			for j := 0; j < i && same == nil; j++ {
				if s, ok := d.Subs[j].Node.(*plan.Scan); ok && s.Dataset == sc.Dataset {
					same = s
				}
			}
			if same != nil {
				sc.GUID, sc.BaseRows = same.GUID, same.BaseRows
			} else if ver, err := cat.Latest(sc.Dataset); err == nil {
				ds, _ := cat.Dataset(sc.Dataset)
				sc.GUID, sc.BaseRows = ver.GUID, plan.ScanBaseRows(ds, ver)
			} else {
				return nil
			}
		}
		d.Subs[i].Node = m
		d.Subs[i].Strict = o.Signer.StrictOf(m, attrs, strict[:len(in)])
		d.index[m] = i
	}
	d.Plan = d.Subs[n-1].Node
	return d
}

package cloudviews

// TestNoNodeKeyedMapsOnTheJobPath is a lint-style guard for the job path's
// one index space: compile, execute and record read a node's estimate, key,
// statistics and record row by its position in the compile's enumeration
// (optimizer.CompileResult.Subs), never through a map keyed by plan node. It
// parses the non-test files of the four packages on that path and fails on
// any map[plan.Node]… type outside the allowlist below.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// nodeMapAllowlist names the declarations, as package.Type.Member, that may
// still spell a map keyed by plan node: the benchmark probe's two, which
// leave with ROADMAP item 1(a). New entries need a reason here.
var nodeMapAllowlist = map[string]string{
	"signature.Signer.Physical": "benchmark/probe.go signs with it",
	"exec.Executor.SigMap":      "benchmark/probe.go executes with it",
}

func TestNoNodeKeyedMapsOnTheJobPath(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range []string{"optimizer", "signature", "exec", "core"} {
		paths, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		files := 0
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files++
			for _, decl := range f.Decls {
				for _, part := range declParts(pkg, decl) {
					name := part.name
					ast.Inspect(part.node, func(n ast.Node) bool {
						if m, ok := n.(*ast.MapType); ok && isPlanNode(m.Key) {
							if _, ok := nodeMapAllowlist[name]; !ok {
								t.Errorf("%s: %s keys a map by plan node; index by position in the compile's enumeration instead",
									fset.Position(m.Pos()), name)
							}
						}
						return true
					})
				}
			}
		}
		if files == 0 {
			t.Fatalf("internal/%s: no non-test files parsed", pkg)
		}
	}
}

// declParts splits a top-level declaration into the parts the allowlist
// names: a function or method whole, each field of a struct type, and every
// other type, variable or constant spec.
func declParts(pkg string, decl ast.Decl) (parts []declPart) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		name := d.Name.Name
		if d.Recv != nil && len(d.Recv.List) == 1 {
			typ := d.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		}
		parts = append(parts, declPart{pkg + "." + name, d})
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				st, ok := s.Type.(*ast.StructType)
				if !ok {
					parts = append(parts, declPart{pkg + "." + s.Name.Name, s})
					continue
				}
				for _, field := range st.Fields.List {
					name := "" // an embedded field
					if len(field.Names) > 0 {
						name = field.Names[0].Name
					}
					parts = append(parts, declPart{pkg + "." + s.Name.Name + "." + name, field})
				}
			case *ast.ValueSpec:
				parts = append(parts, declPart{pkg + "." + s.Names[0].Name, s})
			}
		}
	}
	return parts
}

// declPart is one part of a declaration and the name the allowlist gives it.
type declPart struct {
	name string
	node ast.Node
}

// isPlanNode reports whether e spells plan.Node.
func isPlanNode(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Node" {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "plan"
}

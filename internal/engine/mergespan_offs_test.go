package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestMergeSpanOffsetsAreLiveScans pins the precondition agg.Store.
// MergeSpan's dense path rests on: its offsets are strictly increasing,
// so offs[k−1] == k−1 can only mean 0…k−1. AppendLive's output is, so
// this walks every MergeSpan call in the package's sources and proves
// its offsets argument is an AppendLive result — assigned directly,
// carried in a struct field, or handed down through a parameter whose
// every caller passes one. A call site that builds offsets any other
// way fails here, before it can take the dense path by accident.
func TestMergeSpanOffsetsAreLiveScans(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	// Only identifier resolution is needed, which works without the
	// imported packages: their types come out invalid and the errors
	// that causes are ignored.
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Error: func(error) {}}
	conf.Check("engine", fset, files, info)

	objOf := func(id *ast.Ident) types.Object {
		if o := info.Defs[id]; o != nil {
			return o
		}
		return info.Uses[id]
	}
	calleeName := func(c *ast.CallExpr) (*ast.Ident, bool) {
		switch fn := c.Fun.(type) {
		case *ast.Ident:
			return fn, true
		case *ast.SelectorExpr:
			return fn.Sel, true
		}
		return nil, false
	}

	// Index the package once: parameters by object, calls, assignments
	// (plain, range and var specs) and struct-literal fields.
	type param struct {
		fn  types.Object
		idx int
	}
	params := map[types.Object]param{}
	var calls []*ast.CallExpr
	sources := map[types.Object][]ast.Expr{} // nil entry: a binding that is not an expression (range)
	for _, f := range files {
		ast.Inspect(f, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.FuncDecl:
				i := 0
				for _, fld := range nd.Type.Params.List {
					for _, name := range fld.Names {
						params[objOf(name)] = param{objOf(nd.Name), i}
						i++
					}
				}
			case *ast.CallExpr:
				calls = append(calls, nd)
			case *ast.AssignStmt:
				if len(nd.Lhs) != len(nd.Rhs) {
					break
				}
				for i, lhs := range nd.Lhs {
					switch lhs := lhs.(type) {
					case *ast.Ident:
						sources[objOf(lhs)] = append(sources[objOf(lhs)], nd.Rhs[i])
					case *ast.SelectorExpr:
						sources[objOf(lhs.Sel)] = append(sources[objOf(lhs.Sel)], nd.Rhs[i])
					}
				}
			case *ast.RangeStmt:
				for _, e := range []ast.Expr{nd.Key, nd.Value} {
					if id, ok := e.(*ast.Ident); ok {
						sources[objOf(id)] = append(sources[objOf(id)], nil)
					}
				}
			case *ast.ValueSpec:
				for i, name := range nd.Names {
					if i < len(nd.Values) {
						sources[objOf(name)] = append(sources[objOf(name)], nd.Values[i])
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := nd.Key.(*ast.Ident); ok {
					sources[objOf(id)] = append(sources[objOf(id)], nd.Value)
				}
			}
			return true
		})
	}

	var live func(e ast.Expr, seen map[types.Object]bool) bool
	liveObj := func(o types.Object, seen map[types.Object]bool) bool {
		if o == nil || seen[o] {
			return o != nil // a cycle adds no new source
		}
		seen[o] = true
		if p, ok := params[o]; ok {
			n := 0
			for _, c := range calls {
				if id, ok := calleeName(c); ok && objOf(id) == p.fn {
					n++
					if p.idx >= len(c.Args) || !live(c.Args[p.idx], seen) {
						return false
					}
				}
			}
			return n > 0
		}
		if len(sources[o]) == 0 {
			return false
		}
		for _, src := range sources[o] {
			if src == nil || !live(src, seen) {
				return false
			}
		}
		return true
	}
	live = func(e ast.Expr, seen map[types.Object]bool) bool {
		switch e := e.(type) {
		case *ast.CallExpr:
			id, ok := calleeName(e)
			return ok && id.Name == "AppendLive"
		case *ast.Ident:
			return liveObj(objOf(e), seen)
		case *ast.SelectorExpr:
			return liveObj(objOf(e.Sel), seen)
		}
		return false
	}

	checked := 0
	for _, c := range calls {
		if id, ok := calleeName(c); !ok || id.Name != "MergeSpan" {
			continue
		}
		checked++
		if len(c.Args) != 4 || !live(c.Args[3], map[types.Object]bool{}) {
			t.Errorf("%s: MergeSpan's offsets are not provably an AppendLive scan", fset.Position(c.Pos()))
		}
	}
	if checked == 0 {
		t.Fatal("found no MergeSpan call sites: the source walk is broken")
	}
}

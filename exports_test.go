package factorwindows

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportGuardPackages are the packages whose exported functions and
// methods must each have a caller outside tests: the aggregate kernels
// and the text and binary codecs, where a superseded kernel or encoder
// once lingered beside its replacement with only tests calling it, and
// the execution and state-carrying tiers (engine, parallel, router,
// shardworker, stream), where a superseded constructor or typed-state
// helper would otherwise survive for tests alone, and the serving layer
// and what it is built on (server, reorder, wal, multiquery, admit),
// where an accessor once stayed exported for tests alone.
var exportGuardPackages = []string{
	"internal/agg", "internal/streamio", "internal/wire",
	"internal/engine", "internal/parallel", "internal/router", "internal/shardworker", "internal/stream",
	"internal/server", "internal/reorder", "internal/wal", "internal/multiquery", "internal/admit",
}

// testOnlyExports are the exported names the guard exempts, each with
// the reason it has no non-test caller.
var testOnlyExports = map[string]string{
	"FinalizeAt":   "per-row reference the batch-kernel tests check FinalizeSpan against",
	"LiveAt":       "per-row reference the batch-kernel tests check AppendLive against",
	"CellFinal":    "per-cell reference FinalizeCells and the test oracles are checked against",
	"Functions":    "test-table helper listing every aggregate function",
	"ShareableFns": "test-table helper listing the exactly shareable functions",
	"SketchFns":    "test-table helper listing the sketch-backed functions",
	"TotalInputs":  "the engine's input counter, which the tests check the paper's sharing claim with",
	"Unwrap":       "called by errors.Is and errors.As through the interface, never by name",
}

// TestNoTestOnlyExports keeps one kernel per job: every exported func or
// method declared in a non-test file of exportGuardPackages must be named
// somewhere in the repository's non-test Go (bench/, cmd/ and examples/
// included) other than at its own declaration. A replaced kernel whose
// last caller moved to its successor then fails here instead of
// lingering for tests alone.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	type decl struct{ pkg, name string }
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		guarded := slices.Contains(exportGuardPackages, filepath.ToSlash(filepath.Dir(path)))
		declared := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if guarded && fn.Name.IsExported() {
				decls = append(decls, decl{filepath.Dir(path), fn.Name.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatalf("no exported funcs found under %v", exportGuardPackages)
	}
	for _, d := range decls {
		if uses[d.name] == 0 && testOnlyExports[d.name] == "" {
			t.Errorf("%s: exported %s is named by no non-test Go file; delete it or give it a caller", d.pkg, d.name)
		}
	}
}

// Package internal_test guards the internal/ tree against regrowing
// test-only API: TestNoDeadExports fails when an exported name under
// internal/ is used by no non-test file of the module.
package internal_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// allowlist names the exports that only tests reach and that stay anyway
// (test seams such as ManualClock.Advance, reference constructors). It
// may only shrink: the test fails on a dead export that is not listed
// AND on a listed name that is no longer dead, so the file cannot hide a
// new one behind a stale line.
const allowlist = "testdata/dead_exports.txt"

// stdMethods are method names the standard library calls through its own
// interfaces (fmt, errors, sort, io, encoding, net/http, container/heap),
// which a name-level scan of this module cannot see.
var stdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true, "RoundTrip": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
}

// TestNoDeadExports is a name-level scan, not a type check: an exported
// func, method, type, var or const declared under internal/ counts as
// used when its bare name occurs anywhere in a non-test file other than
// as the name being declared. That under-reports (two types sharing a
// method name vouch for each other) and never over-reports.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	declared := map[string]string{} // "internal/pkg.Recv.Name" → bare name
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != ".." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(strings.TrimPrefix(path, "../")))
		declaring := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident, recv string) {
			declaring[id] = true
			if strings.HasPrefix(pkg, "internal/") && id.IsExported() && !(recv != "" && stdMethods[id.Name]) {
				declared[pkg+"."+recv+id.Name] = id.Name
			}
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				recv := ""
				if decl.Recv != nil {
					// *T and T[P] down to the receiver's type name.
					recv, _, _ = strings.Cut(strings.TrimPrefix(types.ExprString(decl.Recv.List[0].Type), "*"), "[")
					if !ast.IsExported(recv) {
						declaring[decl.Name] = true // unreachable from outside whatever its name
						continue
					}
					recv += "."
				}
				declare(decl.Name, recv)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name, "")
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id, "")
						}
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declaring[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	for full, name := range declared {
		if !used[name] {
			dead = append(dead, full)
		}
	}
	slices.Sort(dead)

	list, err := os.ReadFile(allowlist)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, line := range strings.Split(string(list), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			allowed[line] = true
		}
	}
	for _, full := range dead {
		if !allowed[full] {
			t.Errorf("%s is exported but used by no non-test file: delete it, unexport it, or move it into a _test.go file", full)
		}
		delete(allowed, full)
	}
	for full := range allowed {
		t.Errorf("%s is listed in %s but is not a dead export any more: remove the line", full, allowlist)
	}
}

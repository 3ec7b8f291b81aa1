// Package internal_test guards the internal/ tree against regrowing
// test-only API: TestNoDeadExports fails when an exported name under
// internal/ is used by no non-test file of the module.
package internal_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
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

// allowlist names the exports that only tests reach and that stay anyway,
// each under the ROADMAP item that will call it or under the accessor
// heading. It may only shrink: the test fails on a dead export that is
// not listed AND on a listed name that is no longer dead, so the file
// cannot hide a new one behind a stale line.
const allowlist = "testdata/dead_exports.txt"

// modulePath is the module line of ../go.mod.
const modulePath = "substream"

// stdMethods are method names the standard library calls through its own
// interfaces (fmt, errors, sort, io, encoding, net/http, container/heap),
// which a scan of this module's identifiers cannot see.
var stdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true, "RoundTrip": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
}

// moduleImporter type-checks the module's own packages from their
// non-test files, recursively and once each, and hands every other import
// path to the standard library's source importer.
type moduleImporter struct {
	fset *token.FileSet
	std  types.Importer
	info *types.Info               // shared: every package's uses land in one table
	pkgs map[string]*types.Package // by directory relative to the module root
	ifcs map[string]bool           // method names of the interfaces the module declares
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, modulePath+"/")
	if !ok {
		return m.std.Import(path)
	}
	return m.load(rel)
}

// load type-checks the non-test files of the module directory rel; it
// returns nil for a directory that has none.
func (m *moduleImporter) load(rel string) (*types.Package, error) {
	if pkg, ok := m.pkgs[rel]; ok {
		return pkg, nil
	}
	dir := filepath.Join("..", filepath.FromSlash(rel))
	bp, err := build.ImportDir(dir, 0) // GoFiles: no tests, build constraints applied
	var noGo *build.NoGoError
	if errors.As(err, &noGo) || err == nil && len(bp.GoFiles) == 0 {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		file, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, file)
	}
	pkg, err := (&types.Config{Importer: m}).Check(modulePath+"/"+rel, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[rel] = pkg
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.InterfaceType); ok {
				if ifc, ok := m.info.TypeOf(lit).(*types.Interface); ok {
					for i := range ifc.NumMethods() { // embedded ones included
						m.ifcs[ifc.Method(i).Name()] = true
					}
				}
			}
			return true
		})
	}
	return pkg, nil
}

// TestNoDeadExports type-checks every non-test package of the module and
// calls an exported func, type, var, const or method declared under
// internal/ used when some non-test file refers to that object — not to
// another object of the same name, so CountMin.N does not vouch for
// VarOpt.N. A method is also used when an interface declared in the
// module, or stdMethods, has a method of its name: that is a call the
// identifier table cannot attribute to one implementation.
func TestNoDeadExports(t *testing.T) {
	// The source importer would otherwise run cgo over net and os/user.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &moduleImporter{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		pkgs: map[string]*types.Package{},
		ifcs: map[string]bool{},
	}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); name != ".." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel("..", path)
		if err == nil {
			_, err = m.load(filepath.ToSlash(rel))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[types.Object]bool{}
	for _, obj := range m.info.Uses {
		switch o := obj.(type) { // a use of an instantiated generic is a use of its declaration
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	var dead []string
	for rel, pkg := range m.pkgs {
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue // and so are its methods: unreachable from outside whatever their names
			}
			if !used[obj] {
				dead = append(dead, rel+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := range named.NumMethods() {
				if fn := named.Method(i); fn.Exported() && !used[fn] && !m.ifcs[fn.Name()] && !stdMethods[fn.Name()] {
					dead = append(dead, rel+"."+name+"."+fn.Name())
				}
			}
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

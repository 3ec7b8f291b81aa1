// Package internal_test guards the internal/ tree against regrowth, from
// one type-check of the module's non-test files: TestNoDeadExports fails
// when an exported name under internal/ is used by no non-test file of the
// module, TestOneDecodePath when a payload finds a second way in, and
// TestServedTypesAreWireFormed when a served package holds a summary that
// cannot be shipped.
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
	"sync"
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
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info               // shared: every package's uses land in one table
	pkgs  map[string]*types.Package // by directory relative to the module root
	files map[string][]*ast.File    // the files of each, by the same key
	ifcs  map[string]bool           // method names of the interfaces the module declares
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
	m.pkgs[rel], m.files[rel] = pkg, files
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

// loadModule type-checks every non-test package of the module, once for
// all the tests of this file.
var loadModule = sync.OnceValues(func() (*moduleImporter, error) {
	// The source importer would otherwise run cgo over net and os/user.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &moduleImporter{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{}},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		ifcs:  map[string]bool{},
	}
	return m, filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
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
})

// TestNoDeadExports calls an exported func, type, var, const or method
// declared under internal/ used when some non-test file refers to that
// object — not to another object of the same name, so CountMin.N does not
// vouch for VarOpt.N. A method is also used when an interface declared in
// the module, or stdMethods, has a method of its name: that is a call the
// identifier table cannot attribute to one implementation.
func TestNoDeadExports(t *testing.T) {
	m, err := loadModule()
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

// TestOneDecodePath keeps decoding the mirror image of encoding: a payload
// enters through one Reader — wire.Decode's — and every kind reads from the
// Reader it is handed. So wire.NewReader has exactly two non-test call
// sites (the other reads a snapshot file, which is not a payload), and
// outside internal/wire no non-test function takes bytes and
// returns something with a wire form, estimator.Decode excepted: it is the
// registry's name for wire.Decode, and benchmark/ calls it.
func TestOneDecodePath(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	wirePkg := m.pkgs["internal/wire"]
	newReader := wirePkg.Scope().Lookup("NewReader")
	encoder := wirePkg.Scope().Lookup("Encoder").Type().Underlying().(*types.Interface)
	hasWireForm := func(t types.Type) bool {
		return types.Implements(t, encoder) || types.Implements(types.NewPointer(t), encoder)
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		return ok && types.Identical(s.Elem(), types.Typ[types.Byte])
	}
	some := func(tuple *types.Tuple, pred func(types.Type) bool) bool {
		for i := range tuple.Len() {
			if pred(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}

	var sites []string
	for rel, files := range m.files {
		for _, file := range files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				name := rel + "." + fd.Name.Name
				ast.Inspect(fd, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && m.info.Uses[id] == newReader {
						sites = append(sites, name)
					}
					return true
				})
				sig := m.info.Defs[fd.Name].Type().(*types.Signature)
				if rel != "internal/wire" && name != "internal/estimator.Decode" &&
					some(sig.Params(), isBytes) && some(sig.Results(), hasWireForm) {
					t.Errorf("%s takes bytes and returns a summary: decode from the *wire.Reader the caller holds, or go through wire.Decode", name)
				}
			}
		}
	}
	slices.Sort(sites)
	if want := []string{"internal/server.decodeSnapshot", "internal/wire.Decode"}; !slices.Equal(sites, want) {
		t.Errorf("wire.NewReader is called in %v, want exactly %v: a payload has one Reader and one decode budget", sites, want)
	}
}

// TestServedTypesAreWireFormed keeps the packages the daemon serves from
// holding in-process-only summaries: every exported type of core, sketch
// and levelset that observes a stream also has a wire form (Encode) and a
// merge (Merge, or MergeCounter for a collision counter). A comparator
// without them lives in internal/experiments, beside its experiment.
func TestServedTypesAreWireFormed(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, rel := range []string{"internal/core", "internal/sketch", "internal/levelset"} {
		scope := m.pkgs[rel].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			methods := types.NewMethodSet(types.NewPointer(tn.Type()))
			has := func(method string) bool { return methods.Lookup(tn.Pkg(), method) != nil }
			if has("Observe") && (!has("Encode") || !has("Merge") && !has("MergeCounter")) {
				bad = append(bad, rel+"."+name)
			}
		}
	}
	if len(bad) > 0 {
		t.Errorf("%v observe a stream but have no Encode or no Merge/MergeCounter: a served package holds only shippable summaries; move an in-process comparator into internal/experiments", bad)
	}
}

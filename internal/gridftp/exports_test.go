package gridftp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// checkedPackages are the packages, as directories under internal/,
// whose exported functions and methods must each have a non-test caller.
var checkedPackages = []string{"gridftp", "oscars", "dtnsched", "oscarsd", "telemetry", "usagestats"}

// uncalledExports may stay exported with no non-test caller, keyed
// package.Name. ReadBlock waits on the benchmark module's next change:
// its siblings ReadBlockInto and WriteBlock are pinned there, and the
// three are unexported together. ScheduleTransfers is called only by
// the root BenchmarkAblationServerScheduling, which is to become an
// exhibit.
var uncalledExports = map[string]bool{
	"gridftp.ReadBlock":          true,
	"dtnsched.ScheduleTransfers": true,
}

// TestNoDeadExports fails on an exported function or method declared in
// one of checkedPackages that no non-test file in the module, the
// benchmark module included, names outside its own declaration. Names
// are matched without types, so a same-named method elsewhere counts as
// a caller: the check is lenient, never noisy.
func TestNoDeadExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	checked := map[string]string{} // directory -> package
	for _, pkg := range checkedPackages {
		checked[filepath.Join(root, "internal", pkg)] = pkg
	}
	fset := token.NewFileSet()
	exported := map[string][]string{} // package -> names
	named := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, isChecked := checked[filepath.Dir(path)]
		for _, decl := range f.Decls {
			self := ""
			if fn, ok := decl.(*ast.FuncDecl); ok {
				self = fn.Name.Name
				if isChecked && fn.Name.IsExported() {
					exported[pkg] = append(exported[pkg], self)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name != self {
					named[id.Name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range checkedPackages {
		if len(exported[pkg]) == 0 {
			t.Fatalf("found no exported function in %s; is the module root right?", pkg)
		}
		for _, name := range exported[pkg] {
			if !named[name] && !uncalledExports[pkg+"."+name] {
				t.Errorf("%s.%s is exported but no non-test file calls it: unexport or delete it", pkg, name)
			}
		}
	}
}

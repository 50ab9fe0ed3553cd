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

// uncalledExports may stay exported with no non-test caller. ReadBlock
// waits on the benchmark module's next change: its siblings
// ReadBlockInto and WriteBlock are pinned there, and the three are
// unexported together.
var uncalledExports = map[string]bool{"ReadBlock": true}

// TestNoDeadExports fails on an exported function or method declared in
// this package that no non-test file in the module, the benchmark
// module included, names outside its own declaration. Names are
// matched without types, so a same-named method elsewhere counts as a
// caller: the check is lenient, never noisy.
func TestNoDeadExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	here, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var exported []string
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
		for _, decl := range f.Decls {
			self := ""
			if fn, ok := decl.(*ast.FuncDecl); ok {
				self = fn.Name.Name
				if filepath.Dir(path) == here && fn.Name.IsExported() {
					exported = append(exported, self)
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
	if len(exported) == 0 {
		t.Fatal("found no exported function in this package; is the module root right?")
	}
	for _, name := range exported {
		if !named[name] && !uncalledExports[name] {
			t.Errorf("%s is exported but no non-test file calls it: unexport or delete it", name)
		}
	}
}

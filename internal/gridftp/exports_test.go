package gridftp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledExports may stay exported with no non-test caller, keyed
// package.Name or package.Type.Method, the package named by its
// directory under internal/.
var uncalledExports = map[string]bool{
	// Its siblings ReadBlockInto and WriteBlock are pinned by the
	// benchmark module; the three are unexported together on its next
	// change.
	"gridftp.ReadBlock": true,
	// Called only by the root BenchmarkAblationServerScheduling, which is
	// to become an exhibit.
	"dtnsched.Calendar.ScheduleTransfers": true,
	// The loss and jitter ablations, reached today only from the root
	// BenchmarkAblation* functions, are to become exhibits that call
	// these.
	"tcpmodel.Config.TransferStochastic": true,
	"queueing.CompareIsolation":          true,
	// The HNTES query, which the online-broker exhibit's learned-prior
	// arm and the live circuit-isolation drill are to call.
	"alphaflow.Redirector.ShouldRedirect": true,
	// errors.Is and errors.As call it through the interface, never by
	// name.
	"vc.ServerError.Unwrap": true,
}

// TestNoDeadExports fails on an exported function or method declared in
// any package under internal/ that no non-test file in the module, the
// benchmark module included, names outside its own declaration. Names
// are matched without types, so a same-named method elsewhere counts as
// a caller: the check is lenient, never noisy.
func TestNoDeadExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	internal := filepath.Join(root, "internal")
	fset := token.NewFileSet()
	exported := map[string]string{} // package.[Type.]Name -> Name
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
		pkg, err := filepath.Rel(internal, filepath.Dir(path))
		isChecked := err == nil && !strings.HasPrefix(pkg, "..")
		pkg = filepath.ToSlash(pkg)
		for _, decl := range f.Decls {
			self := ""
			if fn, ok := decl.(*ast.FuncDecl); ok {
				self = fn.Name.Name
				if isChecked && fn.Name.IsExported() {
					key := pkg + "."
					if fn.Recv != nil {
						key += recvType(fn.Recv.List[0].Type) + "."
					}
					exported[key+self] = self
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
		t.Fatal("found no exported function under internal/; is the module root right?")
	}
	var dead []string
	for key, name := range exported {
		if !named[name] && !uncalledExports[key] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported but no non-test file calls it: unexport or delete it", key)
	}
	for key := range uncalledExports {
		if name, ok := exported[key]; !ok || named[name] {
			t.Errorf("%s is excepted but is not an uncalled export: drop it from uncalledExports", key)
		}
	}
}

// recvType names a method's receiver type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

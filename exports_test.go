package fastlsa_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestExportsHaveConsumers keeps the facade to entry points that a program
// outside the package uses: every exported function of package fastlsa, and
// every exported method on a type it declares, must be referenced from a
// non-test file under cmd/, examples/ or perfbench/. Functions count only
// when qualified by the fastlsa import; methods count by selector name,
// since the check does not type-check the callers.
func TestExportsHaveConsumers(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs["fastlsa"]
	if pkg == nil {
		t.Fatal("package fastlsa not found")
	}
	var exports []string // "Name" for functions, "Type.Name" for methods
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				exports = append(exports, fd.Name.Name)
				continue
			}
			if recv := receiverType(fd.Recv.List[0].Type); ast.IsExported(recv) {
				exports = append(exports, recv+"."+fd.Name.Name)
			}
		}
	}

	funcs := map[string]bool{}   // fastlsa.Name selectors
	methods := map[string]bool{} // any .Name selector
	for _, root := range []string{"cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			local := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "fastlsa" {
					local = "fastlsa"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				methods[sel.Sel.Name] = true
				if x, ok := sel.X.(*ast.Ident); ok && local != "" && x.Name == local {
					funcs[sel.Sel.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	sort.Strings(exports)
	for _, name := range exports {
		typ, method, isMethod := strings.Cut(name, ".")
		used := funcs[typ]
		if isMethod {
			used = methods[method]
		}
		if !used {
			t.Errorf("fastlsa.%s has no caller in a non-test file under cmd/, examples/ or perfbench/", name)
		}
	}
}

// receiverType names a method receiver's base type: T for T and *T.
func receiverType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

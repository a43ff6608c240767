package cloudskulk_test

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

// facadeFiles are the files that make up the public API.
var facadeFiles = []string{"cloudskulk.go", "experiments.go"}

// callerDirs hold the code the facade exists for: the CLIs, the examples
// and the benchmark module.
var callerDirs = []string{"cmd", "examples", "bench"}

// TestFacadeExportsHaveCallers keeps the facade cut to what is used:
// every exported name must be referenced as cloudskulk.<Name> by a
// non-test file under callerDirs, or appear in the signature of a name
// that is kept.
func TestFacadeExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	// sigRefs maps each exported name to the facade names its signature
	// uses.
	sigRefs := map[string][]string{}
	for _, path := range facadeFiles {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					sigRefs[d.Name.Name] = identsIn(d.Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							sigRefs[s.Name.Name] = identsIn(s.Type)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								sigRefs[n.Name] = identsIn(s.Type)
							}
						}
					}
				}
			}
		}
	}

	kept := map[string]bool{}
	var queue []string
	for _, dir := range callerDirs {
		for _, name := range facadeSelectors(t, fset, dir) {
			if _, ok := sigRefs[name]; ok && !kept[name] {
				kept[name] = true
				queue = append(queue, name)
			}
		}
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		for _, ref := range sigRefs[name] {
			if _, ok := sigRefs[ref]; ok && !kept[ref] {
				kept[ref] = true
				queue = append(queue, ref)
			}
		}
	}

	var unused []string
	for name := range sigRefs {
		if !kept[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d of %d facade exports have no caller under %v: %s",
			len(unused), len(sigRefs), callerDirs, strings.Join(unused, ", "))
	}
}

// identsIn returns the bare identifiers an expression mentions; selector
// expressions contribute nothing, since pkg.Name never names a facade
// declaration.
func identsIn(e ast.Expr) []string {
	if e == nil {
		return nil
	}
	var out []string
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			return false
		case *ast.Ident:
			out = append(out, n.Name)
		}
		return true
	})
	return out
}

// facadeSelectors returns every Name referenced as cloudskulk.Name by the
// non-test Go files below dir.
func facadeSelectors(t *testing.T, fset *token.FileSet, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != dir && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "cloudskulk" {
					out = append(out, sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

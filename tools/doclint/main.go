// Command doclint enforces the documentation contract of the public
// API surface: every exported symbol in the given package directories
// must carry a doc comment, and every package must have package-level
// godoc. CI runs it over the root package and every internal package
// and fails the build on violations.
//
// Usage:
//
//	go run ./tools/doclint <pkg-dir>...
//
// A grouped const/var/type declaration is satisfied by a doc comment on
// the group. Methods on unexported receiver types are skipped — they
// are not part of the public surface. Test files are ignored.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doclint <pkg-dir>...")
		os.Exit(2)
	}
	violations := 0
	for _, dir := range os.Args[1:] {
		n, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", dir, err)
			os.Exit(2)
		}
		violations += n
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d undocumented exported symbols\n", violations)
		os.Exit(1)
	}
}

// lintDir parses the non-test Go files of one package directory and
// reports each undocumented exported symbol, returning the count.
func lintDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return 0, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return 0, fmt.Errorf("no Go files")
	}

	violations := 0
	report := func(pos token.Pos, what string) {
		fmt.Printf("%s: %s lacks a doc comment\n", fset.Position(pos), what)
		violations++
	}

	hasPkgDoc := false
	for _, f := range files {
		if f.Doc != nil {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc {
		fmt.Printf("%s: package %s lacks package-level godoc\n", dir, files[0].Name.Name)
		violations++
	}

	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				if d.Recv != nil && !exportedReceiver(d.Recv) {
					continue
				}
				report(d.Pos(), "func "+d.Name.Name)
			case *ast.GenDecl:
				if d.Tok == token.IMPORT || d.Doc != nil {
					continue
				}
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && sp.Doc == nil && sp.Comment == nil {
							report(sp.Pos(), "type "+sp.Name.Name)
						}
					case *ast.ValueSpec:
						if sp.Doc != nil || sp.Comment != nil {
							continue
						}
						for _, n := range sp.Names {
							if n.IsExported() {
								report(n.Pos(), d.Tok.String()+" "+n.Name)
								break
							}
						}
					}
				}
			}
		}
	}
	return violations, nil
}

// exportedReceiver reports whether a method's receiver names an
// exported type (stripping pointers and type parameters).
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

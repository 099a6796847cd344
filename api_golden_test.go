package hft

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// The public surface of this package is contract: hftbench, hftsim, the
// examples and downstream users all program against it. This test
// renders every exported declaration (functions, methods, types with
// their exported fields, constants and variables) into a canonical
// dump and compares it against testdata/api.golden, so a PR cannot
// silently grow, shrink or reshape the API. The observation types hft
// aliases (Event, Snapshot, ServiceLatencies, ...) are declared in
// internal/obs, so that package's declarations are rendered too, each
// line prefixed "obs: ". After an intentional change, regenerate with:
//
//	go test -run TestAPISurfaceGolden -update-api .

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.golden from the current surface")

// renderNode prints an AST node with canonical formatting.
func renderNode(fset *token.FileSet, node any) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces, Tabwidth: 8}
	if err := cfg.Fprint(&buf, fset, node); err != nil {
		panic(err)
	}
	// Collapse whitespace runs so gofmt drift can't churn the golden.
	return strings.Join(strings.Fields(buf.String()), " ")
}

// exposedType strips a struct type down to its exported fields (the
// public contract); other type expressions pass through.
func exposedType(expr ast.Expr) ast.Expr {
	st, ok := expr.(*ast.StructType)
	if !ok {
		return expr
	}
	out := &ast.StructType{Fields: &ast.FieldList{}}
	for _, f := range st.Fields.List {
		var names []*ast.Ident
		for _, n := range f.Names {
			if n.IsExported() {
				names = append(names, ast.NewIdent(n.Name))
			}
		}
		if len(names) == 0 && len(f.Names) > 0 {
			continue
		}
		out.Fields.List = append(out.Fields.List, &ast.Field{Names: names, Type: f.Type})
	}
	return out
}

// apiSurface renders the exported declarations of hft and internal/obs,
// one per line, sorted.
func apiSurface(t *testing.T) string {
	t.Helper()
	lines := append(declarations(t, ".", "hft", ""), declarations(t, "internal/obs", "obs", "obs: ")...)
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// declarations renders package name's exported declarations in dir,
// each line prefixed with prefix.
func declarations(t *testing.T, dir, name, prefix string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs[name]
	if !ok {
		t.Fatalf("package %s not found in %s (got %v)", name, dir, pkgs)
	}
	var lines []string
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil {
					// Methods only count on exported receiver types.
					recv := renderNode(fset, d.Recv.List[0].Type)
					base := strings.TrimLeft(recv, "*")
					if !ast.IsExported(base) {
						continue
					}
					lines = append(lines, fmt.Sprintf("%sfunc (%s) %s%s",
						prefix, recv, d.Name.Name, strings.TrimPrefix(renderNode(fset, d.Type), "func")))
					continue
				}
				lines = append(lines, fmt.Sprintf("%sfunc %s%s",
					prefix, d.Name.Name, strings.TrimPrefix(renderNode(fset, d.Type), "func")))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						assign := ""
						if s.Assign != token.NoPos {
							assign = "= "
						}
						lines = append(lines, fmt.Sprintf("%stype %s %s%s",
							prefix, s.Name.Name, assign, renderNode(fset, exposedType(s.Type))))
					case *ast.ValueSpec:
						kw := "var"
						if d.Tok == token.CONST {
							kw = "const"
						}
						for i, n := range s.Names {
							if !n.IsExported() {
								continue
							}
							line := fmt.Sprintf("%s%s %s", prefix, kw, n.Name)
							if s.Type != nil {
								line += " " + renderNode(fset, s.Type)
							}
							if i < len(s.Values) {
								line += " = " + renderNode(fset, s.Values[i])
							}
							lines = append(lines, line)
						}
					}
				}
			}
		}
	}
	return lines
}

func TestAPISurfaceGolden(t *testing.T) {
	got := apiSurface(t)
	const path = "testdata/api.golden"
	if *updateAPI {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-api): %v", path, err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	seen := map[string]bool{}
	for _, l := range wantLines {
		seen[l] = true
	}
	for _, l := range gotLines {
		if !seen[l] {
			t.Errorf("surface gained: %s", l)
		}
	}
	now := map[string]bool{}
	for _, l := range gotLines {
		now[l] = true
	}
	for _, l := range wantLines {
		if !now[l] {
			t.Errorf("surface lost: %s", l)
		}
	}
	if !t.Failed() {
		t.Error("api surface reordered relative to golden")
	}
	t.Log("intentional change? regenerate with: go test -run TestAPISurfaceGolden -update-api .")
}

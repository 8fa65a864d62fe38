package clocksync

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goDecls is what the repository's Go files declare, by package name (an
// external test package counts as its package): top-level names, and for
// each type name its specs and method names.
type goDecls map[string]*pkgDecls

type pkgDecls struct {
	names   map[string]bool
	types   map[string][]*ast.TypeSpec
	methods map[string]map[string]bool
}

// parseDecls parses every Go file under the repository root, tests and the
// benchmark module included: a name README.md cites resolves if anything in
// the repository declares it.
func parseDecls(t *testing.T) goDecls {
	t.Helper()
	d := goDecls{}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if strings.HasPrefix(e.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		d.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (d goDecls) add(f *ast.File) {
	name := strings.TrimSuffix(f.Name.Name, "_test")
	p := d[name]
	if p == nil {
		p = &pkgDecls{names: map[string]bool{}, types: map[string][]*ast.TypeSpec{}, methods: map[string]map[string]bool{}}
		d[name] = p
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				p.names[decl.Name.Name] = true
				continue
			}
			recv := typeName(decl.Recv.List[0].Type)
			if p.methods[recv] == nil {
				p.methods[recv] = map[string]bool{}
			}
			p.methods[recv][decl.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					p.names[spec.Name.Name] = true
					p.types[spec.Name.Name] = append(p.types[spec.Name.Name], spec)
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						p.names[n.Name] = true
					}
				}
			}
		}
	}
}

// typeRef is the name a type expression refers to, and its package ("" for
// the package it appears in): T, *T, T[X] and pkg.T.
func typeRef(x ast.Expr) (pkg, name string) {
	switch x := x.(type) {
	case *ast.Ident:
		return "", x.Name
	case *ast.StarExpr:
		return typeRef(x.X)
	case *ast.IndexExpr:
		return typeRef(x.X)
	case *ast.IndexListExpr:
		return typeRef(x.X)
	case *ast.SelectorExpr:
		if p, ok := x.X.(*ast.Ident); ok {
			return p.Name, x.Sel.Name
		}
	}
	return "", ""
}

// typeName is typeRef's name alone.
func typeName(x ast.Expr) string {
	_, name := typeRef(x)
	return name
}

// hasMember reports whether type typ of package pkg has a field or method
// named member: its own methods, its struct fields or interface methods,
// and those of what it embeds or stands for (an alias, a defined type over
// another named type).
func (d goDecls) hasMember(pkg, typ, member string, depth int) bool {
	p := d[pkg]
	if p == nil || depth > 8 {
		return false
	}
	if p.methods[typ][member] {
		return true
	}
	follow := func(x ast.Expr) bool {
		q, name := typeRef(x)
		if q == "" {
			q = pkg
		}
		return name != "" && d.hasMember(q, name, member, depth+1)
	}
	for _, spec := range p.types[typ] {
		var fields []*ast.Field
		switch t := spec.Type.(type) {
		case *ast.StructType:
			fields = t.Fields.List
		case *ast.InterfaceType:
			fields = t.Methods.List
		default:
			if follow(t) {
				return true
			}
		}
		for _, f := range fields {
			for _, n := range f.Names {
				if n.Name == member {
					return true
				}
			}
			if len(f.Names) == 0 && (typeName(f.Type) == member || follow(f.Type)) {
				return true
			}
		}
	}
	return false
}

// typesNamed returns the packages that declare a type named typ.
func (d goDecls) typesNamed(typ string) []string {
	var pkgs []string
	for name, p := range d {
		if len(p.types[typ]) > 0 {
			pkgs = append(pkgs, name)
		}
	}
	return pkgs
}

// docName is a backticked pkg.Name, pkg.Type.Member or Type.Member, with
// the arguments of a call or the fields of a literal after it.
var docName = regexp.MustCompile(`^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*){1,2})(?:\([^()]*\)|\{[^{}]*\})?$`)

// TestDocIdentifiers resolves every Go name README.md cites in backticks —
// pkg.Name, pkg.Type.Member and Type.Member — against the declarations in
// the repository, so a name deleted or renamed in the code cannot live on
// in the documentation. A span whose first part is neither a package nor a
// type of the repository (a variable such as res or ctx, a standard-library
// package) is not a name of this code, nor is a file name or a benchmark
// metric that BENCHMARK.json lists.
func TestDocIdentifiers(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	metrics := benchmarkMetrics(t)
	decls := parseDecls(t)

	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose.WriteString(line + "\n")
		}
	}
	checked := 0
	for _, span := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(prose.String(), -1) {
		m := docName.FindStringSubmatch(span[1])
		if m == nil || metrics[m[1]] {
			continue
		}
		parts := strings.Split(m[1], ".")
		switch parts[len(parts)-1] {
		case "go", "json", "md", "mod", "sh", "txt", "yml", "yaml", "csv":
			continue
		}
		var ok bool
		switch p := decls[parts[0]]; {
		case p != nil && parts[0] != "main" && len(parts) == 2:
			ok = p.names[parts[1]]
		case p != nil && parts[0] != "main":
			ok = len(p.types[parts[1]]) > 0 && decls.hasMember(parts[0], parts[1], parts[2], 0)
		case len(parts) == 2 && len(decls.typesNamed(parts[0])) > 0:
			for _, pkg := range decls.typesNamed(parts[0]) {
				ok = ok || decls.hasMember(pkg, parts[0], parts[1], 0)
			}
		default:
			continue // not a name this repository declares
		}
		checked++
		if !ok {
			t.Errorf("README.md cites `%s`, which no Go file of the repository declares", span[1])
		}
	}
	if checked == 0 {
		t.Fatal("README.md cites no Go name the test could resolve; the extraction is broken")
	}
	t.Logf("%d names checked", checked)
}

// benchmarkMetrics returns the metric names BENCHMARK.json declares: they
// read like pkg.name but name measurements, not declarations.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		names[m.Name] = true
	}
	return names
}

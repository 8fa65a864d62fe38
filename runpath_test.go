package clocksync

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneRunPath pins the structure the harness is built on: outside the
// engine's own package and the engine benchmarks, exactly one function opens
// an engine — the execute step in internal/exp/run.go, through
// sim.NewRunner — so observers, fault substitution and the choice between
// the sequential and the sharded engine are decided in one place. A new
// sim.New / sim.NewSharded / sim.NewRunner call anywhere else is a second
// run path.
func TestOneRunPath(t *testing.T) {
	const home = "internal/exp/run.go"
	calls := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			// benchmark/ is its own module, whose traced replicas drive
			// decorated engines by design.
			if strings.HasPrefix(d.Name(), ".") && path != "." || path == "benchmark" ||
				path == "internal/sim" || path == "internal/bench" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "sim" {
				return true
			}
			switch sel.Sel.Name {
			case "New", "NewSharded", "NewRunner":
				if path != home {
					t.Errorf("%s uses sim.%s: engines are opened only by the execute step in %s", path, sel.Sel.Name, home)
				}
				calls++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("%d sim.New/NewSharded/NewRunner selectors outside internal/sim and internal/bench, want exactly 1 (in %s)", calls, home)
	}
}

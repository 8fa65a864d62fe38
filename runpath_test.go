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

// inspectSources parses every non-test Go file of the root module outside the
// skipped directories and hands each AST node to visit with its file's path.
func inspectSources(t *testing.T, skip func(dir string) bool, visit func(path string, n ast.Node)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			// benchmark/ is its own module, whose traced replicas drive
			// decorated engines by design.
			if strings.HasPrefix(d.Name(), ".") && path != "." || path == "benchmark" || skip(path) {
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
			visit(path, n)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// selectorOf reports whether n is the selector pkg.name and returns name.
func selectorOf(n ast.Node, pkg string) (string, bool) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if x, ok := sel.X.(*ast.Ident); !ok || x.Name != pkg {
		return "", false
	}
	return sel.Sel.Name, true
}

// TestOneRunPath pins the structure the harness is built on: outside the
// engine's own package and the engine benchmarks, exactly one function opens
// an engine — the execute step in internal/exp/run.go, through sim.New — so
// observers, fault substitution and the choice between the time-major and
// the windowed drain (sim.Config.Shards) are decided in one place. A new
// sim.New call anywhere else is a second run path. sim.NewSharded and
// sim.ShardedEngine exist only for the benchmark module, and sim.NewRunner
// and sim.Runner are gone, so naming any of them outside internal/sim fails
// too.
func TestOneRunPath(t *testing.T) {
	const home = "internal/exp/run.go"
	calls := 0
	inspectSources(t, func(dir string) bool { return dir == "internal/sim" }, func(path string, n ast.Node) {
		switch name, _ := selectorOf(n, "sim"); name {
		case "New":
			if strings.HasPrefix(path, "internal/bench/") {
				return
			}
			if path != home {
				t.Errorf("%s uses sim.New: engines are opened only by the execute step in %s", path, home)
			}
			calls++
		case "NewSharded", "ShardedEngine", "NewRunner", "Runner":
			t.Errorf("%s names sim.%s: the engine is sim.Engine, built by sim.New with Config.Shards", path, name)
		}
	})
	if calls != 1 {
		t.Errorf("%d sim.New selectors outside internal/sim and internal/bench, want exactly 1 (in %s)", calls, home)
	}
}

// TestOneRoundSchedule pins the structure the algorithms are built on: the
// §4.2 FLAG — a type named phase — is declared in internal/core only, so a
// round-structured automaton elsewhere runs on core's schedule (Round,
// RoundProc) instead of keeping its own T/FLAG machine; and no automaton
// package builds a multiset to average, so every update goes through
// multiset.Averager.Average on a reused scratch.
func TestOneRoundSchedule(t *testing.T) {
	inspectSources(t, func(string) bool { return false }, func(path string, n ast.Node) {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "phase" && !strings.HasPrefix(path, "internal/core/") {
			t.Errorf("%s declares a type named phase: the round schedule lives in internal/core", path)
		}
		if name, _ := selectorOf(n, "multiset"); name == "New" {
			for _, dir := range []string{"internal/core/", "internal/baselines/", "internal/faults/"} {
				if strings.HasPrefix(path, dir) {
					t.Errorf("%s calls multiset.New: automata average through multiset.Averager.Average", path)
				}
			}
		}
	})
}

// TestOneFaultVocabulary pins the one fault vocabulary: the facade, wlsim and
// the scenario DSL build no faulty automaton of their own — no faults.X{…}
// composite literal, no faults.Mix* call — so every faulty process they run
// comes from faults.Place, on the placement it resolves; and the crash/rejoin
// lifecycle is core.CrashRejoin alone, with no type named CrashAfter or gate
// anywhere to fork it.
func TestOneFaultVocabulary(t *testing.T) {
	entryPoint := func(path string) bool {
		return !strings.Contains(path, "/") || strings.HasPrefix(path, "cmd/wlsim/") || strings.HasPrefix(path, "internal/scenario/")
	}
	inspectSources(t, func(string) bool { return false }, func(path string, n ast.Node) {
		if ts, ok := n.(*ast.TypeSpec); ok && (ts.Name.Name == "CrashAfter" || ts.Name.Name == "gate") {
			t.Errorf("%s declares type %s: crash/rejoin is core.CrashRejoin", path, ts.Name.Name)
		}
		if !entryPoint(path) {
			return
		}
		if lit, ok := n.(*ast.CompositeLit); ok {
			if name, ok := selectorOf(lit.Type, "faults"); ok {
				t.Errorf("%s builds a faults.%s literal: faulty automata come from faults.Place", path, name)
			}
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name, _ := selectorOf(call.Fun, "faults"); strings.HasPrefix(name, "Mix") {
				t.Errorf("%s calls faults.%s: faulty automata come from faults.Place", path, name)
			}
		}
	})
}

package clocksync

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fmaTargets are the architectures whose compilers fuse. Go lets a compiler
// fuse x*y + z into one instruction on architectures that have one (amd64
// never does), which rounds once instead of twice and moves the last bit;
// an explicit float64(x*y) forbids it.
var fmaTargets = []string{"arm64", "riscv64", "ppc64le", "s390x"}

// fusedOp matches the mnemonic column of -S output for a fused
// multiply-add or multiply-subtract on any fmaTargets architecture (FMAXD,
// FMIND and the other F-prefixed min/max/move ops do not match).
var fusedOp = regexp.MustCompile(`^(FN?M(ADD|SUB)[SD]?|W?FN?M[AS]DB)$`)

// asmPos extracts the file:line of one -S instruction line.
var asmPos = regexp.MustCompile(`\(([^()]+\.go:\d+)\)`)

// TestNoFusedFloatOps cross-compiles every package of the module for every
// fmaTargets architecture with -gcflags=-S and fails, naming file:line, on
// any fused multiply-add the compiler emitted — the goldens and digests pin
// float results bit for bit, and a fused product would round differently
// there. That covers the delay models' declared spans too (sim.UniformSpan,
// PerLinkDelay.Span, hier.ClusteredDelay's Span and Bounds): a span must
// round as Sample rounds each delay, or a windowed engine's check of its
// redrawn copies fails on an architecture that fuses. The build cache
// replays the -S listing, so a warm cache still checks every instruction.
func TestNoFusedFloatOps(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range fmaTargets {
		cmd := exec.Command(goBin, "build", "-gcflags=-S", "./...")
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%s", arch, err, out)
		}
		seen := map[string]bool{}
		for _, line := range strings.Split(string(out), "\n") {
			cols := strings.Split(line, "\t")
			if len(cols) < 3 || !fusedOp.MatchString(cols[2]) {
				continue
			}
			pos := "?"
			if m := asmPos.FindStringSubmatch(cols[1]); m != nil {
				pos = m[1]
				if rel, err := filepath.Rel(root, pos); err == nil {
					pos = rel
				}
			}
			if !seen[pos] {
				seen[pos] = true
				t.Errorf("GOARCH=%s: %s fused into %s; wrap the product in float64(…)", arch, pos, cols[2])
			}
		}
	}
}

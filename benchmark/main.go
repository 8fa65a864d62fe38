// Command benchmark is the repository's benchmark: six workloads at the
// surfaces a user touches (clocksync.New(...).Run, scenario.Run, the
// experiment suite), end-to-end metrics from an untraced pass and a
// per-layer ledger from a separate traced pass. README.md in this directory
// describes the workloads, the metrics and how to read the ledger;
// BENCHMARK.json at the repository root registers it.
//
//	bash benchmark/run.sh --workload flat_n101_seq --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 1 -o a.json          # all six workloads
//	bash benchmark/run.sh --seed 1 --trace 1          # the per-layer ledger
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code made explicit: 0 on success, 1
// when a check failed (an op, a replica, a comparison), 2 when the benchmark
// could not run (bad flags, missing inputs or goldens).
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		seed     = fl.Int64("seed", 1, "seed of the facade workloads' inputs: op i runs with DeriveSeed(seed, i)")
		names    = fl.String("workload", "", "comma-separated workloads to run (default: all six)")
		seconds  = fl.Float64("seconds", 10, "how long each workload measures; ops keep starting until it has passed")
		trace    = fl.Int("trace", 0, "1 runs the traced per-layer pass instead of the untraced end-to-end pass")
		traceOut = fl.String("trace-out", "", "where a traced pass writes its aggregated spans (default .bench_build/spans.json under -root)")
		out      = fl.String("o", "", "append the results, with host metadata, to this JSON file")
		compare  = fl.Bool("compare", false, "compare two result files: -compare a.json b.json")
		root     = fl.String("root", ".", "repository root: scenarios/ and the golden tables are read from it")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), stdout, stderr)
	}
	if fl.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see -h")
		return 2
	}
	wls, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	cfg := runConfig{root: *root, seed: *seed, seconds: *seconds, host: readHost(*root)}
	fmt.Fprintf(stdout, "host: %s\n", cfg.host)

	var results []*runResult
	var spans []spanRecord
	code := 0
	for _, w := range wls {
		pass := measurePass
		if *trace == 1 {
			pass = tracePass
		}
		r, err := pass(w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if err := r.print(stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !r.Correct {
			code = 1
		}
		results = append(results, r)
		spans = append(spans, r.spans...)
	}
	if *trace == 1 {
		path := *traceOut
		if path == "" {
			path = filepath.Join(*root, ".bench_build", "spans.json")
		}
		if err := writeJSON(path, spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	return code
}

// hostInfo is recorded with every result: the numbers mean nothing without
// the machine and the parallelism they were taken on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"git_commit"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q %s %s commit=%s", h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.OSArch, h.Commit)
}

func readHost(root string) hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		CPU: "unknown", Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (or without git) the commit stays unknown.
	if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
		if s, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(s) > 0 {
			h.Commit += "+modified"
		}
	}
	return h
}

// resultFile is what -o writes: every run appended so far, so that a set of
// runs of one build accumulates in one file for -compare.
type resultFile struct {
	Schema int          `json:"schema"`
	Runs   []*runResult `json:"runs"`
}

func appendResults(path string, rs []*runResult) error {
	f := resultFile{Schema: 1}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	f.Runs = append(f.Runs, rs...)
	return writeJSON(path, f)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

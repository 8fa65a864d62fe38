// Command experiments runs the paper-reproduction experiment suite and
// prints one table per reproduced claim (-list prints the index with each
// claim's paper reference).
//
// Usage:
//
//	experiments            # run everything
//	experiments -run E08   # run one experiment
//	experiments -list      # list experiments
//	experiments -md        # emit markdown instead of aligned text
//	experiments -workers 1 # force serial sweeps (default: GOMAXPROCS)
//
// Each experiment's independent simulation workloads fan out across a
// worker pool (internal/exp/runner); tables are byte-identical for any
// worker count, so -workers only changes wall-clock time.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/exp/runner"
)

func main() {
	var (
		runID    = flag.String("run", "", "run only the experiment with this id (e.g. E03)")
		list     = flag.Bool("list", false, "list experiments and exit")
		markdown = flag.Bool("md", false, "render tables as markdown")
		workers  = flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
		big      = flag.Bool("big", true, "include the large sweep rows (E05 f>4, E09 n>31, E17 n=13)")
		stress   = flag.Bool("stress", false, "include the nightly stress rows (E17 conformance at n=31); implies -big")
	)
	flag.Parse()
	runner.SetDefaultWorkers(*workers)
	switch {
	case *stress:
		exp.SetSweepTier(exp.TierStress)
	case !*big:
		exp.SetSweepTier(exp.TierQuick)
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-5s %-70s [%s]\n", e.ID, e.Title, e.PaperRef)
		}
		return
	}

	exps := exp.All()
	if *runID != "" {
		e, err := exp.ByID(*runID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		exps = []exp.Experiment{e}
	}

	failed := 0
	for _, e := range exps {
		tables, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed++
			continue
		}
		for _, t := range tables {
			if *markdown {
				t.Markdown(os.Stdout)
			} else {
				t.Render(os.Stdout)
				fmt.Println()
			}
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

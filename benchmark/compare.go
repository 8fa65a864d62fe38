package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
)

// Verdicts of one (workload, metric) pairing under the benchmark's own
// agreement rule.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictMismatch   = "MISMATCH"
)

// judge compares side b against baseline a for one metric. An exact metric
// must read the same on every run of both sides. A timing metric regresses
// when b's median is worse than a's by more than the bound; when either
// side's inter-quartile spread exceeds the bound the difference cannot be
// told from noise, and the pairing is unresolved — unless every run of b
// reads better than every run of a.
func judge(d metricDef, a, b []float64) (verdict string, change float64) {
	ma, mb := median(a), median(b)
	if d.exact {
		for _, v := range append(slices.Clone(a), b...) {
			if v != ma {
				return verdictMismatch, mb - ma
			}
		}
		return verdictOK, 0
	}
	change = (mb - ma) / ma
	worse := change
	if d.better == "higher" {
		worse = -change
	}
	if spread(a) > d.bound || spread(b) > d.bound {
		allBetter := slices.Max(b) < slices.Min(a)
		if d.better == "higher" {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if !allBetter {
			return verdictUnresolved, change
		}
	}
	if worse > d.bound {
		return verdictRegression, change
	}
	return verdictOK, change
}

// side is one result file's untraced runs of one workload: every metric's
// readings by seed (simulated statistics depend on the seed, so exact metrics
// are judged per seed) and each seed's result digest.
type side struct {
	vals    map[string]map[int64][]float64
	digests map[int64]string
}

// all returns a metric's readings over every seed.
func (s *side) all(name string) []float64 {
	var out []float64
	for _, seed := range sortedSeeds(s.vals[name]) {
		out = append(out, s.vals[name][seed]...)
	}
	return out
}

func loadSides(path string) (map[string]*side, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]*side{}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{vals: map[string]map[int64][]float64{}, digests: map[int64]string{}}
			out[r.Workload] = s
		}
		for _, m := range r.Metrics {
			if s.vals[m.Name] == nil {
				s.vals[m.Name] = map[int64][]float64{}
			}
			s.vals[m.Name][r.Seed] = append(s.vals[m.Name][r.Seed], m.Value)
		}
		if prev, ok := s.digests[r.Seed]; ok && prev != r.Digest {
			s.digests[r.Seed] = "unstable"
		} else {
			s.digests[r.Seed] = r.Digest
		}
	}
	return out, nil
}

// compareFiles prints one row per workload and end-to-end metric the two
// files share, and exits 1 on a regression or an exact mismatch.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sides [2]map[string]*side
	for i, path := range []string{pathA, pathB} {
		var err error
		if sides[i], err = loadSides(path); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	return compareSides(sides[0], sides[1], stdout)
}

func compareSides(a, b map[string]*side, w io.Writer) int {
	counts := map[string]int{}
	fmt.Fprintf(w, "%-18s %-24s %3s %12s %7s %3s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "n_a", "median_a", "iqr_a", "n_b", "median_b", "iqr_b", "change", "bound", "verdict")
	for _, wl := range workloads() {
		sa, sb := a[wl.name], b[wl.name]
		if sa == nil || sb == nil {
			continue
		}
		for _, d := range endToEnd {
			if d.exact {
				for _, seed := range sortedSeeds(sa.vals[d.name]) {
					va, vb := sa.vals[d.name][seed], sb.vals[d.name][seed]
					if len(vb) == 0 {
						continue
					}
					verdict, _ := judge(d, va, vb)
					counts[verdict]++
					fmt.Fprintf(w, "%-18s %-24s seed %d: %.17g vs %.17g  exact  %s\n", wl.name, d.name, seed, median(va), median(vb), verdict)
				}
				continue
			}
			va, vb := sa.all(d.name), sb.all(d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, change := judge(d, va, vb)
			counts[verdict]++
			fmt.Fprintf(w, "%-18s %-24s %3d %12.6g %6.2f%% %3d %12.6g %6.2f%% %+7.2f%% %5.0f%%  %s\n",
				wl.name, d.name, len(va), median(va), 100*spread(va), len(vb), median(vb), 100*spread(vb), 100*change, 100*d.bound, verdict)
		}
		for _, seed := range sortedSeeds(sa.digests) {
			da := sa.digests[seed]
			db, ok := sb.digests[seed]
			if !ok {
				continue
			}
			verdict := verdictOK
			if da != db || da == "unstable" {
				verdict = verdictMismatch
			}
			counts[verdict]++
			fmt.Fprintf(w, "%-18s %-24s seed %d: %s vs %s  %s\n", wl.name, "result_digest", seed, da, db, verdict)
		}
	}
	fmt.Fprintf(w, "%d ok, %d unresolved, %d regressions, %d exact mismatches\n",
		counts[verdictOK], counts[verdictUnresolved], counts[verdictRegression], counts[verdictMismatch])
	if counts[verdictRegression]+counts[verdictMismatch] > 0 {
		return 1
	}
	return 0
}

func sortedSeeds[V any](m map[int64]V) []int64 { return slices.Sorted(maps.Keys(m)) }

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// resultSet is what -out writes and compare reads: the runs of one commit
// taken back to back.
type resultSet struct {
	Header runHeader `json:"header"`
	Runs   []result  `json:"runs"`
}

// benchmarkFile is the part of BENCHMARK.json compare needs: which way
// each end-to-end metric is better, and how far its median may worsen.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// values collects one metric of one workload over a set's runs.
func (s resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges set B against set A for one metric of one workload.
// worse is how far B's median is on the wrong side of A's, as a share of
// A's. Within the bound is ok; beyond it is regressed — but only when the
// sets can resolve the bound: if either set's inter-quartile spread is
// wider than the bound the pair is unresolved, unless every run of one
// set lies on one side of every run of the other, which needs no
// statistics.
func verdict(a, b []float64, higherBetter bool, bound float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	worse = (mb - ma) / ma
	if higherBetter {
		worse = -worse
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			better := y < x
			if higherBetter {
				better = y > x
			}
			allBetter = allBetter && better
			allWorse = allWorse && !better && y != x
		}
	}
	resolved := spread(a) <= bound && spread(b) <= bound
	switch {
	case allBetter:
		return worse, "ok"
	case worse > bound && (resolved || allWorse):
		return worse, "regressed"
	case worse <= bound && resolved:
		return worse, "ok"
	}
	return worse, "unresolved"
}

// compareMain prints, for every workload and end-to-end metric, both
// medians, each set's range ÷ median and inter-quartile spread ÷ median,
// the bound from BENCHMARK.json and the verdict. It returns 1 if anything
// regressed or failed, 2 on a usage error.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "the benchmark description holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-bench BENCHMARK.json] A.json B.json")
		return 2
	}
	var a, b resultSet
	var bf benchmarkFile
	for _, f := range []struct {
		path string
		v    any
	}{{fs.Arg(0), &a}, {fs.Arg(1), &b}, {*bench, &bf}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
			return 2
		}
	}
	fmt.Printf("A: %s\nB: %s\n", a.Header, b.Header)
	fmt.Printf("%-14s %-15s %12s %12s %7s %7s %7s %7s %7s %6s  %s\n",
		"workload", "metric", "median A", "median B", "rng A", "rng B", "iqr A", "iqr B", "worse", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, e := range bf.EndToEnd {
			va, vb := a.values(w.name, e.Name), b.values(w.name, e.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, v := verdict(va, vb, e.Better == "higher", e.Bound)
			if v == "regressed" {
				code = 1
			}
			fmt.Printf("%-14s %-15s %12.4f %12.4f %6.1f%% %6.1f%% %6.1f%% %6.1f%% %+6.1f%% %5.0f%%  %s\n",
				w.name, e.Name, median(va), median(vb),
				100*rangeOverMedian(va), 100*rangeOverMedian(vb), 100*spread(va), 100*spread(vb),
				100*worse, 100*e.Bound, v)
		}
	}
	for _, s := range []resultSet{a, b} {
		for _, r := range s.Runs {
			if !r.Correct || r.Failed != 0 {
				fmt.Printf("%-14s seed %d: %d of %d failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	return code
}

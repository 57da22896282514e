// Command experiments regenerates every table and figure of the
// reproduction: the Table 1 design-space comparison, the Figure 1 topology
// validation, and experiments E1–E25 (see DESIGN.md for the index and
// EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	experiments [-seed N] [-parallel N] [-only table1|figure1|e1|...|e25] \
//	            [-cpuprofile file] [-memprofile file] \
//	            [-blockprofile file] [-mutexprofile file]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/profile"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 42, "experiment seed (all results are deterministic in it)")
	only := flag.String("only", "", "run a single experiment: table1, figure1, e1..e25")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"max concurrent workers over the experiments' row tasks, also with -only (1 = serial; output is identical either way)")
	profiles := profile.Register(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()

	if *only != "" {
		tbl, ok := experiments.Run(strings.ToLower(*only), *seed, *parallel)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; choose one of table1, figure1, e1..e25\n", *only)
			return 2
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	for _, tbl := range experiments.RunAll(*seed, *parallel) {
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

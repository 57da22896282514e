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
	"repro/internal/metrics"
	"repro/internal/profile"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 42, "experiment seed (all results are deterministic in it)")
	only := flag.String("only", "", "run a single experiment: table1, figure1, e1..e25")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"max concurrent experiment workers (1 = serial; output is identical either way)")
	profiles := profile.Register(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()

	runners := map[string]func(int64) *metrics.Table{
		"table1":  experiments.Table1DesignSpace,
		"figure1": func(int64) *metrics.Table { return experiments.Figure1Topology() },
		"e1":      experiments.E1RouteAvailability,
		"e2":      experiments.E2Convergence,
		"e3":      experiments.E3SpanningTreeReplication,
		"e4":      experiments.E4QOSScaling,
		"e5":      experiments.E5SetupVsHandle,
		"e6":      experiments.E6EGPTopologyRestriction,
		"e7":      experiments.E7SynthesisStrategies,
		"e8":      experiments.E8PolicyGranularity,
		"e9":      experiments.E9MessageScaling,
		"e10":     experiments.E10OrderingSatisfiability,
		"e11":     experiments.E11FilterDiscovery,
		"e12":     experiments.E12IDRPMultiRoute,
		"e13":     experiments.E13TimeOfDay,
		"e14":     experiments.E14PolicyChange,
		"e15":     experiments.E15LogicalClusterCost,
		"e16":     experiments.E16DatabaseDistribution,
		"e17":     experiments.E17SetupAmortization,
		"e18":     experiments.E18PathStretch,
		"e19":     experiments.E19MultihomedStubs,
		"e20":     experiments.E20RouteServer,
		"e21":     experiments.E21StateLifecycles,
		"e22":     experiments.E22ScopedInvalidation,
		"e23":     experiments.E23HAFailover,
		"e24":     experiments.E24PGStateScale,
		"e25":     experiments.E25PlanEngine,
	}

	if *only != "" {
		runner, ok := runners[strings.ToLower(*only)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; choose one of table1, figure1, e1..e25\n", *only)
			return 2
		}
		if err := runner(*seed).Render(os.Stdout); err != nil {
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

// Command policytool predicts the impact of a proposed policy change — the
// network-management capability the paper's §6 calls for. It generates an
// internet and policy set, applies a hypothetical change to one AD, and
// reports connectivity, transit-load, and synthesis-cost deltas without
// deploying anything.
//
// Usage:
//
//	policytool -seed 7 -ad 3 -action close
//	policytool -ad 3 -action restrict -allow 9,10,11
//	policytool -ad 3 -action open
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/policytool"
	"repro/internal/synthesis"
	"repro/internal/topology"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

func main() {
	var (
		seed        = flag.Int64("seed", 42, "seed for topology and policy generation")
		adFlag      = flag.Uint("ad", 0, "AD whose policy to change (0 = first transit AD)")
		action      = flag.String("action", "close", "proposed change: close | open | restrict")
		allow       = flag.String("allow", "", "comma-separated source AD IDs for -action restrict")
		restriction = flag.Float64("restriction", 0.3, "baseline source-restriction probability")
	)
	flag.Parse()

	topo := topology.Generate(topology.Config{
		Seed: *seed, Backbones: 2, RegionalsPerBackbone: 3,
		CampusesPerParent: 3, LateralProb: 0.25, BypassProb: 0.1,
	})
	g := topo.Graph
	db := policy.Generate(g, policy.GenConfig{
		Seed: *seed + 1, SourceRestrictionProb: *restriction, SourceFraction: 0.5,
	})

	target := ad.ID(*adFlag)
	if target == ad.Invalid {
		for _, info := range g.ADs() {
			if info.Class == ad.Transit {
				target = info.ID
				break
			}
		}
	}
	if _, ok := g.AD(target); !ok {
		fmt.Fprintf(os.Stderr, "unknown AD %v\n", target)
		os.Exit(2)
	}

	var newTerms []policy.Term
	switch *action {
	case "close":
		newTerms = nil
	case "open":
		newTerms = []policy.Term{policy.OpenTerm(target, 0)}
	case "restrict":
		if *allow == "" {
			fmt.Fprintln(os.Stderr, "-action restrict requires -allow id,id,...")
			os.Exit(2)
		}
		var ids []ad.ID
		for _, part := range strings.Split(*allow, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad AD id %q: %v\n", part, err)
				os.Exit(2)
			}
			ids = append(ids, ad.ID(v))
		}
		term := policy.OpenTerm(target, 0)
		term.Sources = policy.SetOf(ids...)
		newTerms = []policy.Term{term}
	default:
		fmt.Fprintf(os.Stderr, "unknown action %q\n", *action)
		os.Exit(2)
	}

	reqs := trafficgen.AllPairs(g, true, 0, 0)
	change := wire.PlanStep{Op: wire.CtlPolicy, A: target, Terms: newTerms}
	im, err := policytool.Assess(synthesis.NewWorld(g, db), []wire.PlanStep{change}, reqs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := im.Report(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

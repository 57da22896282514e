// Designspace: walk the paper's Table 1 on the Figure 1 internet with a
// source-restricted policy set, printing for every design point whether
// routing stays legal, loops, violates policy, or hides legal routes — the
// qualitative comparison of §5 made concrete.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

func main() {
	topo := topology.Figure1()
	g := topo.Graph
	db := policy.Generate(g, policy.GenConfig{
		Seed:                  3,
		SourceRestrictionProb: 0.7,
		SourceFraction:        0.5,
	})
	oracle := core.NewOracle(g, db)
	reqs := trafficgen.AllPairs(g, true, 0, 0)

	table := metrics.NewTable("Design space on Figure 1 (source-restricted policies)",
		"protocol", "algorithm", "decision", "policy-in", "availability", "illegal", "blackholes", "msgs", "bytes")

	for _, d := range protocols.Designs {
		m := core.RunScenario(d.New(g, db), oracle, reqs, 600*sim.Second)
		table.AddRow(m.Protocol, d.Algorithm, d.Decision, d.PolicyIn,
			m.Availability(), m.DeliveredIllegal, m.Blackholed, m.Messages, m.Bytes)
	}

	table.AddNote("the paper's conclusion (§6): LS + source routing + policy terms best serves inter-AD policy routing")
	if err := table.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

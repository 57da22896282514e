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
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/egp"
	"repro/internal/protocols/filters"
	"repro/internal/protocols/idrp"
	"repro/internal/protocols/lshh"
	"repro/internal/protocols/orwg"
	"repro/internal/protocols/plaindv"
	"repro/internal/sim"
	"repro/internal/topology"
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
	reqs := core.AllPairsRequests(g, true, 0, 0)

	table := metrics.NewTable("Design space on Figure 1 (source-restricted policies)",
		"protocol", "algorithm", "decision", "policy-in", "availability", "illegal", "blackholes", "msgs", "bytes")

	add := func(sys core.System, algo, decision, policyIn string) {
		m := core.RunScenario(sys, oracle, reqs, 600*sim.Second)
		table.AddRow(m.Protocol, algo, decision, policyIn,
			m.Availability(), m.DeliveredIllegal, m.Blackholed, m.Messages, m.Bytes)
	}
	add(plaindv.New(g, plaindv.Config{SplitHorizon: true}), "DV", "hop-by-hop", "none")
	add(egp.New(g, egp.Config{}), "DV", "hop-by-hop", "none")
	add(filters.New(g, db, filters.Config{}), "—", "source", "filters")
	add(ecma.New(g, db, ecma.Config{}), "DV", "hop-by-hop", "topology")
	add(idrp.New(g, db, idrp.Config{}), "DV", "hop-by-hop", "terms")
	add(idrp.New(g, db, idrp.Config{MultiRoute: 4}), "DV", "hop-by-hop", "terms")
	add(lshh.New(g, db, lshh.Config{}), "LS", "hop-by-hop", "terms")
	add(orwg.New(g, db, orwg.Config{}), "LS", "source", "terms")

	table.AddNote("the paper's conclusion (§6): LS + source routing + policy terms best serves inter-AD policy routing")
	if err := table.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

package experiments

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/egp"
	"repro/internal/protocols/filters"
	"repro/internal/protocols/idrp"
	"repro/internal/protocols/lshh"
	"repro/internal/protocols/orwg"
	"repro/internal/protocols/plaindv"
)

// designPoint annotates a system with its Table 1 coordinates.
type designPoint struct {
	sys       core.System
	algorithm string // "DV" | "LS" | "—"
	decision  string // "hop-by-hop" | "source"
	policyIn  string // "topology" | "policy terms" | "none"
}

// table1Rows instantiates every design point on one topology and policy set;
// each point's protocol run is one task. The topology, policy database,
// oracle and request workload are shared read-only; each point's System owns
// all state it mutates.
func table1Rows(seed int64) rows {
	topo := defaultTopology(seed)
	g := topo.Graph
	db := restrictedPolicy(g, seed+1)
	oracle := core.NewOracle(g, db)
	reqs := core.AllPairsRequests(g, true, 0, 0)

	points := []designPoint{
		{plaindv.New(g, plaindv.Config{SplitHorizon: true, Seed: seed}), "DV", "hop-by-hop", "none"},
		{egp.New(g, egp.Config{Seed: seed}), "DV", "hop-by-hop", "none"},
		{filters.New(g, db, filters.Config{Seed: seed}), "—", "source", "filters"},
		{ecma.New(g, db, ecma.Config{Seed: seed}), "DV", "hop-by-hop", "topology"},
		{idrp.New(g, db, idrp.Config{Seed: seed, BGPMode: true}), "DV", "hop-by-hop", "local only"},
		{idrp.New(g, db, idrp.Config{Seed: seed}), "DV", "hop-by-hop", "policy terms"},
		{idrp.New(g, db, idrp.Config{Seed: seed, MultiRoute: 4}), "DV", "hop-by-hop", "policy terms"},
		{lshh.New(g, db, lshh.Config{Seed: seed}), "LS", "hop-by-hop", "policy terms"},
		{orwg.New(g, db, orwg.Config{Seed: seed}), "LS", "source", "policy terms"},
	}
	results := make([]core.Metrics, len(points))
	tasks := make([]func(), len(points))
	for i, p := range points {
		tasks[i] = func() { results[i] = core.RunScenario(p.sys, oracle, reqs, convergenceLimit) }
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("Table 1 — inter-AD routing design space on a common internet",
			"protocol", "algorithm", "decision", "policy", "availability", "illegal", "loops",
			"messages", "bytes", "conv", "state", "computations")
		for i, p := range points {
			m := results[i]
			t.AddRow(m.Protocol, p.algorithm, p.decision, p.policyIn,
				m.Availability(), m.DeliveredIllegal, m.Looped,
				m.Messages, m.Bytes, m.ConvergenceTime.String(), m.StateEntries, m.Computations)
		}
		t.AddNote("topology: %d ADs, %d links (seed %d); %d stub-pair requests, %d oracle-routable",
			g.NumADs(), g.NumLinks(), seed, len(reqs), results[0].OracleRoutable)
		t.AddNote("availability = legally delivered / oracle-routable; illegal deliveries violate some AD's policy")
		return t
	}}
}

// Table1DesignSpace instantiates every point of the paper's Table 1 design
// space (plus the §3 baselines) on a common topology and policy set, and
// reports the comparison the paper makes qualitatively: route availability,
// policy violations, loop behaviour, overhead, convergence, and state. The
// nine protocol runs are independent and run on every core.
func Table1DesignSpace(seed int64) *metrics.Table {
	return table1Rows(seed).run(0)
}

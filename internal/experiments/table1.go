package experiments

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/protocols"
	"repro/internal/trafficgen"
)

// table1Rows runs every design point on one topology and policy set; each
// point's construction and protocol run is one task. The topology, policy
// database, oracle and request workload are shared read-only; each point's
// System owns all state it mutates.
func table1Rows(seed int64) rows {
	topo := defaultTopology(seed)
	g := topo.Graph
	db := restrictedPolicy(g, seed+1)
	oracle := core.NewOracle(g, db)
	reqs := trafficgen.AllPairs(g, true, 0, 0)

	results := make([]core.Metrics, len(protocols.Designs))
	tasks := make([]func(), len(protocols.Designs))
	for i, d := range protocols.Designs {
		tasks[i] = func() { results[i] = core.RunScenario(d.New(g, db), oracle, reqs, convergenceLimit) }
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("Table 1 — inter-AD routing design space on a common internet",
			"protocol", "algorithm", "decision", "policy", "availability", "illegal", "loops",
			"messages", "bytes", "conv", "state", "computations")
		for i, d := range protocols.Designs {
			m := results[i]
			t.AddRow(m.Protocol, d.Algorithm, d.Decision, d.PolicyIn,
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

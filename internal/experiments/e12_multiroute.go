package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/protocols/idrp"
)

// E12IDRPMultiRoute sweeps the number of attribute-distinct routes IDRP
// advertises per destination. The paper (§5.2): advertising multiple routes
// raises the probability that sources have acceptable routes, but
// "effectively replicates the routing table per forwarding entity" — an
// availability/state tradeoff.
func E12IDRPMultiRoute(seed int64) *metrics.Table {
	topo := defaultTopology(seed)
	g := topo.Graph
	db := restrictedPolicy(g, seed+1)
	oracle := core.NewOracle(g, db)
	reqs := core.AllPairsRequests(g, true, 0, 0)

	t := metrics.NewTable("E12 — IDRP multi-route advertisement tradeoff",
		"routes/dest", "availability", "blackholed", "state-entries", "messages", "bytes")
	for _, k := range []int{1, 2, 4, 8} {
		sys := idrp.New(g, db, idrp.Config{Seed: seed, MultiRoute: k})
		m := core.RunScenario(sys, oracle, reqs, convergenceLimit)
		t.AddRow(fmt.Sprintf("%d", k), m.Availability(), m.Blackholed,
			m.StateEntries, m.Messages, m.Bytes)
	}
	t.AddNote("more advertised routes recover availability lost to source-specific policy, at the cost of table state and update traffic")
	return t
}

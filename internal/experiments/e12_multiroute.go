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
// availability/state tradeoff. Every route count's run is independent and
// runs on every core.
func E12IDRPMultiRoute(seed int64) *metrics.Table {
	return e12Rows(seed).run(0)
}

// e12Rows makes one task per route count, the most routes first. The
// topology, policy database, oracle and requests are shared read-only.
func e12Rows(seed int64) rows {
	topo := defaultTopology(seed)
	g := topo.Graph
	db := restrictedPolicy(g, seed+1)
	oracle := core.NewOracle(g, db)
	reqs := core.AllPairsRequests(g, true, 0, 0)

	counts := []int{1, 2, 4, 8}
	results := make([]core.Metrics, len(counts))
	var tasks []func()
	for i := len(counts) - 1; i >= 0; i-- {
		tasks = append(tasks, func() {
			sys := idrp.New(g, db, idrp.Config{MultiRoute: counts[i]})
			results[i] = core.RunScenario(sys, oracle, reqs, convergenceLimit)
		})
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E12 — IDRP multi-route advertisement tradeoff",
			"routes/dest", "availability", "blackholed", "state-entries", "messages", "bytes")
		for i, k := range counts {
			m := results[i]
			t.AddRow(fmt.Sprintf("%d", k), m.Availability(), m.Blackholed,
				m.StateEntries, m.Messages, m.Bytes)
		}
		t.AddNote("more advertised routes recover availability lost to source-specific policy, at the cost of table state and update traffic")
		return t
	}}
}

package experiments

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/protocols/filters"
	"repro/internal/protocols/orwg"
	"repro/internal/sim"
)

// E11FilterDiscovery compares the §3 baseline — silent packet filters
// discovered "by having packets dropped until a higher level timeout
// occurs" — against ORWG's advertised policies with validated setup. The
// metrics are packets lost, attempts, and time until a working route. The
// two systems' runs and the routable count are independent and run on
// every core.
func E11FilterDiscovery(seed int64) *metrics.Table {
	return e11Rows(seed).run(0)
}

// e11Rows makes three tasks: the filters run, the ORWG run, and the oracle's
// routable count. The topology, policy database, requests and oracle are
// shared read-only.
func e11Rows(seed int64) rows {
	topo := defaultTopology(seed)
	g := topo.Graph
	db := restrictedPolicy(g, seed+1)
	reqs := core.AllPairsRequests(g, true, 0, 0)
	oracle := core.NewOracle(g, db)

	var fDrops, fAttempts, fDelivered int
	var fLatencies []float64
	var oDelivered int
	var oLatencies []float64
	routable := 0
	tasks := []func(){
		func() {
			fs := filters.New(g, db, filters.Config{Timeout: 500 * sim.Millisecond, MaxCandidates: 5})
			for _, req := range reqs {
				d := fs.Discover(req)
				fDrops += d.DroppedPackets
				fAttempts += d.Attempts
				if d.Delivered {
					fDelivered++
					fLatencies = append(fLatencies, float64(d.Latency)/1000.0)
				}
			}
		},
		func() {
			ow := orwg.New(g, db, orwg.Config{})
			ow.Converge(convergenceLimit)
			for _, req := range reqs {
				res := ow.Establish(req)
				if res.OK {
					oDelivered++
					oLatencies = append(oLatencies, float64(res.RTT)/1000.0)
				}
			}
		},
		func() {
			for _, r := range reqs {
				if oracle.HasRoute(r) {
					routable++
				}
			}
		},
	}

	return rows{tasks, func() *metrics.Table {
		fSum := metrics.Summarize(fLatencies)
		oSum := metrics.Summarize(oLatencies)
		t := metrics.NewTable("E11 — filter discovery vs advertised policy (ORWG)",
			"system", "delivered", "routable", "dropped-packets", "attempts", "latency-p50(ms)", "latency-p95(ms)")
		t.AddRow("filters", fDelivered, routable, fDrops, fAttempts, fSum.P50, fSum.P95)
		t.AddRow("orwg", oDelivered, routable, 0, len(reqs), oSum.P50, oSum.P95)
		t.AddNote("filters waste a 500ms timeout per filtered attempt; ORWG setups are validated before data flows")
		t.AddNote("filter sources only try the 5 shortest paths, so they also miss legal detours ORWG finds")
		return t
	}}
}

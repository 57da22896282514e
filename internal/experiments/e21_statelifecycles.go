package experiments

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/protocols/orwg"
	"repro/internal/sim"
)

// e21TTL is the soft-state lifetime. It must comfortably exceed the
// simulated duration of one establishment wave (tens of seconds) so that
// live flows never expire between their setup and the first refresh pump.
const e21TTL = 60 * sim.Second

// e21Capacity is the per-PG handle bound under the capped discipline —
// far below the concurrent flow count through the backbone PGs, so the
// footprint / availability trade is actually exercised.
const e21Capacity = 8

// E21StateLifecycles measures the §6 policy-gateway state-management
// trade-off: the same two-wave workload runs under each handle lifecycle
// discipline, and the table records what each one pays.
//
// Wave 1 establishes half the flows, then every source abandons them
// without teardown (crashed or silent sources — the §6 scenario). After an
// idle gap, wave 2 establishes the other half; soft-state sources then pump
// Refresh keepalives while hard and capped sources stay quiet. One data
// packet per wave-2 flow measures availability, then the busiest link under
// the live flows fails and RepairAll re-establishes everything that was
// NAKed or invalidated, with re-setup RTTs digested from simulated time.
//
//   - Hard: zero control overhead, full availability, but wave-1 orphans
//     leak forever, so peak state stacks both waves.
//   - Soft: orphans expire within a TTL, bounding state by the live flow
//     set, at the cost of refresh bytes on the wire.
//   - Capped: peak state is bounded by construction; live flows evicted
//     from a full table drop packets (NAK-on-miss) until re-setup.
//
// Every establishment is oracle-verified: setup succeeds exactly when the
// exact search finds a legal route, and the established path is legal.
// Everything is driven by the discrete-event engine, so rows are
// byte-identical for any -parallel. Every table row runs its own system on
// its own copy of the internet, independently, and runs on every core.
func E21StateLifecycles(seed int64) *metrics.Table {
	return e21Rows(seed).run(0)
}

// e21Rows makes one task per table row (workload × state discipline), in
// table order. The base graph and each model's workload are shared
// read-only.
func e21Rows(seed int64) rows {
	const requests = 120
	base := defaultTopology(seed)

	var cells [][]any
	var tasks []func()
	for _, model := range []string{"uniform", "zipf"} {
		workload := servingWorkload(base.Graph, seed+3, requests, model)
		for _, st := range []pgstate.Config{
			{Kind: pgstate.Hard},
			{Kind: pgstate.Soft, TTL: e21TTL},
			{Kind: pgstate.Capped, Capacity: e21Capacity},
		} {
			row := len(cells)
			cells = append(cells, nil)
			tasks = append(tasks, func() {
				// FailLink mutates link state inside the network, and the
				// oracle must see the same world the protocol does, so every
				// row gets private copies. Policies are open: §6 is about
				// state volume at transit PGs, which needs every flow to
				// actually establish.
				g := base.Graph.Clone()
				db := policy.OpenDB(g)
				oracle := core.NewOracle(g, db)
				sys := orwg.New(g, db, orwg.Config{Seed: seed, State: st})
				sys.Converge(convergenceLimit)

				type flow struct {
					req    policy.Request
					handle uint64
					path   ad.Path
				}
				oracleOK, established := 0, 0
				establish := func(reqs []policy.Request) []flow {
					var flows []flow
					for _, req := range reqs {
						res := sys.Establish(req)
						if res.OK == oracle.HasRoute(req) &&
							(!res.OK || oracle.Legal(res.Path, req)) {
							oracleOK++
						}
						if res.OK {
							established++
							if res.Handle != 0 {
								flows = append(flows, flow{req, res.Handle, res.Path})
							}
						}
					}
					return flows
				}

				// Wave 1, then silent abandonment and an idle gap: soft state
				// expires the orphans, hard state leaks them, capped keeps them
				// until wave 2 evicts.
				wave1 := establish(workload[:requests/2])
				for _, f := range wave1 {
					sys.Abandon(f.req.Src, f.handle)
				}
				sys.Advance(2 * e21TTL)

				// Wave 2 is the live traffic. Soft-state sources pump
				// keepalives through the same elapsed time the other
				// disciplines just idle through.
				wave2 := establish(workload[requests/2:])
				for i := 0; i < 3; i++ {
					if st.Kind == pgstate.Soft {
						sys.RefreshEstablished()
					}
					sys.Advance(e21TTL / 2)
				}
				if st.Kind == pgstate.Soft {
					sys.RefreshEstablished()
				}

				// Availability: one data packet per wave-2 flow. A capped PG
				// that evicted the flow NAKs, which kills the flow and queues
				// it for repair.
				delivered, live := 0, make([]ad.Path, 0, len(wave2))
				for _, f := range wave2 {
					if ok, _ := sys.SendData(f.req.Src, f.handle, 64); ok {
						delivered++
						live = append(live, f.path)
					}
				}

				total, maxPeak := sys.StateMetrics()
				resident := total.Resident

				// Churn: fail the busiest link under the surviving flows, then
				// repair everything queued by NAKs and the failure.
				if a, b, ok := busiestLink(live); ok {
					if err := sys.FailLink(a, b); err != nil {
						panic(err)
					}
				}
				repairQ := sys.PendingRepairs()
				rsum := sys.RepairAll()
				lat := sys.ResetupLatency()

				cells[row] = []any{model, string(st.Kind), requests, established, maxPeak, resident,
					sys.Network().Stats.BytesByKind["refresh"],
					metrics.Ratio(float64(delivered), float64(len(wave2))),
					repairQ, rsum.Repaired,
					float64(lat.P95) / 1e6, oracleOK}
			})
		}
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E21 — PG state lifecycles (§6)",
			"workload", "state", "reqs", "flows", "peak/PG", "resident",
			"refresh-B", "avail", "repair-q", "repaired", "resetup-p95(ms)", "oracle-ok")
		for _, c := range cells {
			t.AddRow(c...)
		}
		t.AddNote("two waves of %d flows each; wave 1 is abandoned without teardown, wave 2 is live when availability is probed", requests/2)
		t.AddNote("peak/PG = largest single-PG resident high-water mark; hard stacks the leaked wave-1 orphans under wave 2, soft expires them (TTL %ds), capped is bounded at %d", e21TTL/sim.Second, e21Capacity)
		t.AddNote("avail = wave-2 data packets delivered before churn; capped pays NAK-on-miss for evicted live flows, repaired afterwards via re-setup")
		t.AddNote("repair-q = flows queued by NAKs plus the busiest-link failure; resetup-p95 digests simulated re-establishment RTTs")
		t.AddNote("oracle-ok = establishments that agree with the exact search (success iff a legal route exists, and the path is legal)")
		return t
	}}
}

// busiestLink returns the most-traversed adjacency among the live flows'
// paths (ties broken toward the canonically smallest pair), so the injected
// failure is guaranteed to invalidate installed state.
func busiestLink(paths []ad.Path) (ad.ID, ad.ID, bool) {
	counts := map[[2]ad.ID]int{}
	for _, p := range paths {
		for i := 1; i < len(p); i++ {
			l := ad.Link{A: p[i-1], B: p[i]}.Canonical()
			counts[[2]ad.ID{l.A, l.B}]++
		}
	}
	var best [2]ad.ID
	bestN := 0
	for k, n := range counts {
		if n > bestN || (n == bestN && (k[0] < best[0] || (k[0] == best[0] && k[1] < best[1]))) {
			best, bestN = k, n
		}
	}
	return best[0], best[1], bestN > 0
}

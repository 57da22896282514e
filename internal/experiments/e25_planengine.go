package experiments

import (
	"fmt"

	"repro/internal/ad"
	"repro/internal/metrics"
	"repro/internal/pgstate"
	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// E25PlanEngine validates the what-if planning engine end to end: every
// prediction a plan makes about the live serving layer must match reality
// exactly once the plan is committed. An E22-style six-event timeline
// (fail/restore a lateral, strand/restore a single-homed stub carrying live
// flows, an open-term policy rewrite at a low-degree transit and its
// re-rewrite) is first planned — a read-only blast-radius computation under
// the strategy lock — and then committed through the same backend the
// daemon and routed's line mode share. For each event the table compares,
// set for set and not just count for count: the cache keys predicted
// evicted vs the keys that actually left the cache; the data-plane flows
// predicted torn down vs the handles that actually died; and the (src, dst,
// QOS, UCI) pairs predicted to lose all routes vs the pairs the server
// really stops serving, with every post-commit answer oracle-verified
// against an exhaustive search on the then-current topology and policy.
//
// The assessed population is the recorded query log (the plan engine's
// recorded-workload mode), so "exact" also pins that the log ring captures
// the serving history. The resynth column is the plan's re-synthesis bill
// (count only — its latency projection is wall-clock and belongs to
// BenchmarkPlan). Counters are scheduling-independent for the E22 reasons:
// uncapped cache, negative caching, coalescing, and a population that is
// deduplicated and sorted before assessment.
func E25PlanEngine(seed int64) *metrics.Table {
	t := metrics.NewTable("E25 — what-if plan vs committed reality",
		"workload", "event", "pred-evict", "evict", "pred-torn", "torn",
		"pred-lose", "lose", "resynth", "exact")

	const requests = 600
	const clients = 4
	const flows = 120
	base := defaultTopology(seed)

	for _, model := range []string{"uniform", "zipf"} {
		workload := servingWorkload(base.Graph, seed+2, requests, model)
		g := base.Graph.Clone()
		db := e22Policy(g, seed)
		srv := routeserver.New(synthesis.NewOnDemand(g, db), routeserver.Config{QueryLog: 2048})
		dp, err := routeserver.NewDataPlane(pgstate.Config{Kind: pgstate.Soft, TTL: 300 * sim.Second})
		if err != nil {
			panic(fmt.Sprintf("e25: data plane: %v", err))
		}
		be := daemon.NewBackend(srv, dp, g, db)

		// Warm phase: the whole workload populates the cache, its
		// dependency index, and the query-log ring the plans will replay.
		routeserver.ServePhase(srv, workload, clients)
		installed := 0
		for _, req := range workload {
			if installed >= flows {
				break
			}
			if _, _, ok := be.Install(req); ok {
				installed++
			}
		}

		for _, steps := range e25Events(g, dp) {
			label := steps[0].String()
			id, rep, err := be.Plan(steps)
			if err != nil {
				panic(fmt.Sprintf("e25: plan %s: %v", label, err))
			}

			// Pre-commit observation point. The plan itself mutated
			// nothing, so this is the exact state the plan was computed
			// against; the population probes below are pure cache hits
			// (every member is resident after the previous event's
			// re-queries), so they perturb nothing either.
			preKeys := e25KeySet(srv.DumpEntries(nil))
			preHandles := dp.Handles()
			foundBefore := make([]bool, len(rep.Population))
			for i, req := range rep.Population {
				foundBefore[i] = srv.Query(req).Found
			}

			res, err := be.Commit(id)
			if err != nil {
				panic(fmt.Sprintf("e25: commit %s: %v", label, err))
			}

			// Evicted: the keys that left the cache must be exactly the
			// predicted set.
			postKeys := e25KeySet(srv.DumpEntries(nil))
			gone := make(map[routeserver.Key]bool)
			for k := range preKeys {
				if !postKeys[k] {
					gone[k] = true
				}
			}
			exact := len(gone) == len(rep.EvictedKeys) &&
				res.Evicted == len(rep.EvictedKeys) &&
				res.Retained == rep.Retained &&
				rep.Bill.Count == len(rep.EvictedKeys)
			for _, k := range rep.EvictedKeys {
				if !gone[k] {
					exact = false
				}
			}

			// Torn down: the flow handles that died must be exactly the
			// predicted set.
			dead := e25HandleDiff(preHandles, dp.Handles())
			if len(dead) != len(rep.Teardowns) {
				exact = false
			}
			for _, h := range rep.Teardowns {
				if !dead[h] {
					exact = false
				}
			}

			// Lost: re-query the whole assessed population on the live
			// post-change server (re-filling the evictions, as real traffic
			// would) and oracle-verify every answer by exhaustive search.
			predLost := make(map[routeserver.Key]bool, len(rep.Unroutable))
			for _, req := range rep.Unroutable {
				predLost[req] = true
			}
			lost := 0
			oracle := synthesis.Compile(g, db) // as the commit left them
			for i, req := range rep.Population {
				got := srv.Query(req)
				if got.Found != oracle.RouteExists(req) {
					exact = false
				}
				isLost := foundBefore[i] && !got.Found
				if isLost {
					lost++
				}
				if isLost != predLost[req] {
					exact = false
				}
			}

			t.AddRow(model, label, len(rep.EvictedKeys), len(gone),
				len(rep.Teardowns), len(dead), len(rep.Unroutable), lost,
				rep.Bill.Count, yesNo(exact))
		}
	}
	t.AddNote("six events after a 600-request warm (4 clients) with 120 installed flows: fail/restore a lateral, fail/restore a flow-carrying single-homed stub uplink, open-term policy rewrite at the quietest transit + re-rewrite")
	t.AddNote("each event is planned (read-only blast-radius prediction over the recorded query log) then committed on the same backend; pred-* vs observed columns compare key/handle/pair SETS, not just counts")
	t.AddNote("exact = predicted evicted keys, torn-down handles, lost pairs, retained count, and re-synthesis bill all match the committed outcome, with every post-commit answer verified by exhaustive search")
	t.AddNote("resynth = the plan's re-synthesis bill (one per evicted key); its latency projection is wall-clock and measured by BenchmarkPlan (BENCH_plan.json)")
	return t
}

// e25Events builds the six-event plan timeline: the first lateral link
// fails and is restored, a single-homed stub that sources a live flow loses
// its only uplink (guaranteeing both teardowns and lost pairs) and gets it
// back, and the quietest transit's policy is rewritten to one expensive
// open term and then re-rewritten cheap. Each event is one single-step plan
// batch; multi-step union semantics are pinned by the plan package's tests.
func e25Events(g *ad.Graph, dp *routeserver.DataPlane) [][]wire.PlanStep {
	lateral := lateralLinks(g, 1)[0]
	stub := e25StubLink(g, dp)
	target := quietestTransit(g)
	return [][]wire.PlanStep{
		{failOf(lateral)},
		{restoreOf(lateral)},
		{failOf(stub)},
		{wire.OpenPolicy(target, 10)},
		{restoreOf(stub)},
		{wire.OpenPolicy(target, 1)},
	}
}

// e25StubLink picks the uplink of the first live flow's source whose AD has
// degree one: failing it must strand that stub (lost pairs > 0) and tear
// the flow down (teardowns > 0). Falls back to the first degree-one stub's
// uplink if no such flow exists.
func e25StubLink(g *ad.Graph, dp *routeserver.DataPlane) ad.Link {
	uplink := func(id ad.ID) (ad.Link, bool) {
		for _, l := range g.Links() {
			if l.A == id || l.B == id {
				return l, true
			}
		}
		return ad.Link{}, false
	}
	for _, h := range dp.Handles() {
		f, ok := dp.Flow(h)
		if !ok || g.Degree(f.Req.Src) != 1 {
			continue
		}
		if l, ok := uplink(f.Req.Src); ok {
			return l
		}
	}
	for _, info := range g.ADs() {
		if info.Class == ad.Stub && g.Degree(info.ID) == 1 {
			if l, ok := uplink(info.ID); ok {
				return l
			}
		}
	}
	return g.Links()[0]
}

// e25KeySet collapses a cache dump to its key set.
func e25KeySet(ents []routeserver.CacheEntry) map[routeserver.Key]bool {
	s := make(map[routeserver.Key]bool, len(ents))
	for _, e := range ents {
		s[e.Key] = true
	}
	return s
}

// e25HandleDiff returns the handles present before but not after.
func e25HandleDiff(before, after []uint64) map[uint64]bool {
	alive := make(map[uint64]bool, len(after))
	for _, h := range after {
		alive[h] = true
	}
	dead := make(map[uint64]bool)
	for _, h := range before {
		if !alive[h] {
			dead[h] = true
		}
	}
	return dead
}

package experiments

import (
	"fmt"

	"repro/internal/ad"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// E20RouteServer measures the route-server serving layer (§5.4/§5.4.1):
// a concurrent query engine — sharded route cache, request coalescing,
// full invalidation — wrapped around each synthesis strategy, serving
// skewed workloads with and without mid-serve churn (a link failure plus a
// policy change, each of which invalidates every cached route).
//
// Reported counters are scheduling-independent by construction: with an
// uncapped cache, negative caching, and coalescing, the server runs exactly
// one synthesis per unique (src,dst,qos,uci,hour) key between
// invalidations, so "synth" is deterministic even though four client
// goroutines race on the cache. Naive on-demand serving runs one synthesis
// per request; "saved" is the ratio. Wall-clock throughput and tail latency are measured by
// cmd/routed's load mode and BenchmarkE20RouteServer, which emits
// BENCH_routeserver.json.
func E20RouteServer(seed int64) *metrics.Table {
	t := metrics.NewTable("E20 — route-server serving layer",
		"workload", "churn", "strategy", "reqs", "synth", "naive", "saved",
		"cache-rate", "pre-work", "fail", "oracle-ok")

	const requests = 600
	const clients = 4
	base := defaultTopology(seed)

	for _, model := range []string{"uniform", "zipf"} {
		workload := servingWorkload(base.Graph, seed+2, requests, model)
		for _, churn := range []bool{false, true} {
			for _, kind := range []string{"on-demand", "precomputed", "hybrid", "pruned"} {
				// Churn mutates the graph and policy database, so every
				// row gets a private copy of both.
				g := base.Graph.Clone()
				db := restrictedPolicy(g, seed)
				srv := routeserver.New(buildE20Strategy(kind, g, db, workload), routeserver.Config{})

				phases := [][]policy.Request{workload}
				if churn {
					phases = [][]policy.Request{workload[:requests/2], workload[requests/2:]}
				}
				var oracleOK, failures int
				for pi, phase := range phases {
					if pi > 0 {
						// Both events under one full invalidation.
						world := synthesis.NewWorld(g, db)
						srv.Mutate(func() {
							for _, op := range e20Churn(g) {
								if _, err := world.Apply(op); err != nil {
									panic(fmt.Sprintf("e20: %v: %v", op, err))
								}
							}
						})
					}
					results := routeserver.ServePhase(srv, phase, clients)
					oracle := synthesis.Compile(g, db) // the churn moved both
					for i, req := range phase {
						want := oracle.FindRoute(req)
						if results[i].Found == want.Found &&
							(!want.Found || results[i].Path.Equal(want.Path)) {
							oracleOK++
						}
						if !results[i].Found {
							failures++
						}
					}
				}

				snap := srv.Snapshot()
				churnLabel := "none"
				if churn {
					churnLabel = "fail+policy"
				}
				t.AddRow(model, churnLabel, srv.StrategyName(),
					requests, snap.Misses, requests,
					metrics.Ratio(float64(requests), float64(snap.Misses)),
					snap.HitRate(),
					srv.StrategyStats().PrecomputeExpansions,
					failures, oracleOK)
			}
		}
	}
	t.AddNote("synth = synthesis computations run by the serving layer (4 concurrent clients); naive on-demand serving runs one per request")
	t.AddNote("saved = naive/synth; coalescing + caching computes each unique key once per generation, so skewed workloads save most (§5.4.1)")
	t.AddNote("churn = a lateral-link failure plus a transit policy change at half-serve; each bumps the cache generation and rebuilds the strategy")
	t.AddNote("oracle-ok = served results identical to the exact search on the then-current topology; throughput/latency: see cmd/routed -load and BENCH_routeserver.json")
	return t
}

// buildE20Strategy constructs the named synthesis strategy for the E20
// internet, covering the workload's class spread (QOS/UCI in {0,1}).
func buildE20Strategy(kind string, g *ad.Graph, db *policy.DB, workload []policy.Request) synthesis.Strategy {
	st, err := synthesis.New(kind, g, db, workload, 2, 2)
	if err != nil {
		panic(err)
	}
	return st
}

// e20Churn is the mid-serve timeline: the first lateral link fails and the
// busiest transit AD — most links once that one is down, lowest ID on ties —
// replaces its policy with a single expensive open term (rerouting traffic
// that used it as a cheap transit).
func e20Churn(g *ad.Graph) []wire.PlanStep {
	down := lateralLinks(g, 1)[0]
	var busiest ad.ID
	bestDeg := -1
	for _, info := range g.ADs() {
		if info.Class != ad.Transit {
			continue
		}
		d := g.Degree(info.ID)
		if info.ID == down.A || info.ID == down.B {
			d--
		}
		if d > bestDeg || (d == bestDeg && info.ID < busiest) {
			busiest, bestDeg = info.ID, d
		}
	}
	return []wire.PlanStep{failOf(down), wire.OpenPolicy(busiest, 10)}
}

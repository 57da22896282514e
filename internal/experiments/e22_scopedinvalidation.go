package experiments

import (
	"fmt"
	"slices"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// E22ScopedInvalidation measures what dependency-indexed cache invalidation
// buys under the slow-and-local churn the paper assumes (§2.2–§2.3): the
// same link-local event timeline is replayed against a route server in
// "full" mode (every mutation empties the whole cache — the pre-scoping
// behaviour) and in "scoped" mode (MutateScoped evicts only the entries
// whose recorded footprint the change can touch).
// After warming the cache with the full workload, each of six events (two
// lateral-link failures, their restorations, a policy change at a
// low-degree transit AD, and its revert) is followed by a 50-request slice
// served by four concurrent clients; the table reports synthesis work and
// hit rate over those post-churn slices only.
//
// Counters are scheduling-independent for the same reason as E20: an
// uncapped cache, negative caching, and coalescing mean exactly one
// synthesis per unique key per (re)computation epoch, and hits+coalesced is
// reported as one number. The oracle is legality, not path equality:
// scoped mode deliberately retains routes that a restoration or policy
// broadening made suboptimal-but-legal, so every served route is checked
// against PathLegal on the then-current topology/policy (and every
// no-route answer against an exhaustive search). Wall-clock latency during
// churn is measured by the repository benchmark's churn workload (go run
// ./bench -workload churn). Every table row serves its own server on its
// own copy of the internet, independently, and runs on every core.
func E22ScopedInvalidation(seed int64) *metrics.Table {
	return e22Rows(seed).run(0)
}

// e22Rows makes one task per table row (workload × strategy × mode), in
// table order. The base graph and each model's workload are shared
// read-only; the events mutate the graph and policy database, so every row
// gets a private copy of both.
func e22Rows(seed int64) rows {
	const requests = 600
	const clients = 4
	const phaseLen = 50
	base := defaultTopology(seed)

	// The policy regime matters here in a way it does not for E20: under
	// restrictedPolicy ~95% of stub pairs are unroutable, so the warm cache
	// is almost entirely negative entries — and every broadening event
	// (restore, policy revert) must soundly evict all of them, leaving
	// nothing for scoped invalidation to retain. A route server's cache is
	// interesting when it holds working routes, so E22 serves a mostly
	// permissive regime (full QOS/UCI coverage, mild source restriction)
	// where ~95% of the workload is routable and the dependency index has
	// positive footprints to discriminate on.

	var cells [][]any
	var tasks []func()
	for _, model := range []string{"uniform", "zipf"} {
		workload := servingWorkload(base.Graph, seed+2, requests, model)
		for _, kind := range []string{"on-demand", "hybrid"} {
			for _, mode := range []string{"full", "scoped"} {
				row := len(cells)
				cells = append(cells, nil)
				tasks = append(tasks, func() {
					g := base.Graph.Clone()
					db := e22Policy(g, seed)
					srv := routeserver.New(buildE20Strategy(kind, g, db, workload), routeserver.Config{})
					oracle := core.NewOracle(g, db)
					world := synthesis.NewWorld(g, db)

					// Warm phase: the whole workload, populating the cache and
					// its dependency index.
					routeserver.ServePhase(srv, workload, clients)
					warm := srv.Snapshot()

					churnReqs, legalOK := 0, 0
					for i, op := range e22Events(g, db) {
						ch, apply, err := world.Resolve(op)
						if err != nil {
							panic(fmt.Sprintf("e22: %v: %v", op, err))
						}
						if mode == "full" {
							srv.Mutate(apply)
						} else {
							srv.MutateScoped(ch, apply)
						}
						lo := (i * phaseLen) % requests
						slice := workload[lo : lo+phaseLen]
						results := routeserver.ServePhase(srv, slice, clients)
						churnReqs += len(slice)
						for j, req := range slice {
							if e22Legal(oracle, req, results[j]) {
								legalOK++
							}
						}
					}

					fin := srv.Snapshot()
					synth := fin.Misses - warm.Misses
					hitRate := float64((fin.Hits-warm.Hits)+(fin.Coalesced-warm.Coalesced)) /
						float64(churnReqs)
					cells[row] = []any{model, srv.StrategyName(), mode, churnReqs, synth,
						hitRate, fin.ScopedEvicted, fin.ScopedRetained, legalOK}
				})
			}
		}
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E22 — scoped cache invalidation under churn",
			"workload", "strategy", "mode", "churn-reqs", "synth", "hit-rate",
			"evicted", "retained", "legal-ok")
		for _, c := range cells {
			t.AddRow(c...)
		}
		t.AddNote("six link-local events (fail/restore two laterals, policy change + revert at a low-degree transit) after a 600-request warm; each followed by a 50-request slice (4 clients)")
		t.AddNote("synth/hit-rate cover the post-churn slices only: full mode re-synthesizes the working set after every event, scoped keeps serving unaffected entries")
		t.AddNote("evicted/retained = cache entries dropped/kept across scoped mutations (0 for full mode, whose discard is the lazy generation bump)")
		t.AddNote("legal-ok = served routes legal under the then-current topology+policy (retained routes may be suboptimal by contract, never illegal); no-route answers verified by exhaustive search")
		return t
	}}
}

// e22Policy builds the mostly permissive regime E22 serves: every transit
// covers both QOS and UCI classes (restrictedPolicy leaves the defaults,
// which cover only class 0 and make 3/4 of the two-class workload
// unroutable before source restrictions even apply), hybrids carry for
// most sources, and a mild source/dest restriction leaves a small
// population of genuinely unroutable pairs to exercise negative caching.
func e22Policy(g *ad.Graph, seed int64) *policy.DB {
	return policy.Generate(g, policy.GenConfig{
		Seed:                  seed,
		QOSClasses:            2,
		UCIClasses:            2,
		QOSCoverage:           1.0,
		UCICoverage:           1.0,
		HybridSourceFraction:  0.9,
		SourceRestrictionProb: 0.2,
		SourceFraction:        0.7,
		DestRestrictionProb:   0.1,
		DestFraction:          0.7,
		AvoidProb:             0.1,
	})
}

// e22Events builds the six-event link-local timeline over g and db: fail
// and restore the first two lateral links, interleaved with an expensive
// open-term rewrite at the quietest transit AD and its revert — the term
// list it advertised before, serials included, so the revert's delta is
// computed against the rewritten policy like any other change.
func e22Events(g *ad.Graph, db *policy.DB) []wire.PlanStep {
	l := g.ChurnLinks(2)
	target := quietestTransit(g)
	original := slices.Clone(db.Terms(target))
	return []wire.PlanStep{
		failOf(l[0]),
		restoreOf(l[0]),
		failOf(l[1]),
		wire.OpenPolicy(target, 10),
		restoreOf(l[1]),
		{Op: wire.CtlPolicy, A: target, Terms: original},
	}
}

// quietestTransit returns the lowest-degree transit AD (lowest ID on
// ties) — the locality assumption of §2.2–§2.3 says most policy changes
// happen at the periphery, not at the busiest backbone.
func quietestTransit(g *ad.Graph) ad.ID {
	var quietest ad.ID
	bestDeg := -1
	for _, info := range g.ADs() {
		if info.Class != ad.Transit {
			continue
		}
		d := g.Degree(info.ID)
		if bestDeg == -1 || d < bestDeg || (d == bestDeg && info.ID < quietest) {
			quietest, bestDeg = info.ID, d
		}
	}
	return quietest
}

// e22Legal is the retention oracle: a served route must be a valid path on
// the current graph that every transit AD's policy still admits; a
// no-route answer must mean no legal route exists at all.
func e22Legal(oracle core.Oracle, req policy.Request, res routeserver.Result) bool {
	if !res.Found {
		return !oracle.HasRoute(req)
	}
	return oracle.Legal(res.Path, req)
}

package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/synthesis"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

// E7SynthesisStrategies explores the route-synthesis tradeoff the paper
// flags as its principal open issue (§5.4.1, §6): full precomputation is
// intractable at scale, pure on-demand computation adds setup latency, and
// a hybrid "should be used". We sweep internet size and serve a skewed
// workload (a hot set of repeated requests plus a cold tail) through each
// strategy. Every internet size is independent and runs on every core.
func E7SynthesisStrategies(seed int64) *metrics.Table {
	return e7Rows(seed).run(0)
}

// e7Rows makes one task per internet size, the largest first. Each task
// builds its own internet, policy database and workload, so nothing is
// shared.
func e7Rows(seed int64) rows {
	sizes := []struct {
		regionals, campuses int
	}{{2, 2}, {3, 3}, {4, 5}}
	cells := make([][][]any, len(sizes)) // one row per strategy
	var tasks []func()
	for i := len(sizes) - 1; i >= 0; i-- {
		size := sizes[i]
		tasks = append(tasks, func() {
			topo := topology.Generate(topology.Config{
				Seed:                 seed,
				Backbones:            2,
				RegionalsPerBackbone: size.regionals,
				CampusesPerParent:    size.campuses,
				LateralProb:          0.2,
				BypassProb:           0.1,
			})
			g := topo.Graph
			db := policy.Generate(g, policy.GenConfig{
				Seed: seed + 1, SourceRestrictionProb: 0.4, SourceFraction: 0.5,
			})

			// Workload: a Zipf-skewed stub traffic matrix (most requests
			// concentrate on few pairs), as inter-AD traffic does.
			all := trafficgen.AllPairs(g, true, 0, 0)
			workload := trafficgen.Generate(g, trafficgen.Config{
				Seed: seed + 2, Requests: 400, StubsOnly: true,
				Model: "zipf", ZipfS: 1.4,
			})
			// The hybrid strategy's hot set: the workload's busiest pairs.
			hot := trafficgen.Hottest(workload, len(all)/5+1)

			// Strategies never remember a searched route — a served
			// strategy leaves that to the route server's cache — so the two
			// that search behind a table get a memo here, and a repeated
			// cold request counts as a hit and a table entry, as it would
			// when served.
			strategies := []synthesis.Strategy{
				synthesis.NewPrecomputed(g, db, all), // precompute everything
				synthesis.NewOnDemand(g, db),
				synthesis.NewMemo(synthesis.NewHybrid(g, db, hot)),
				synthesis.NewMemo(synthesis.NewPruned(g, db, g.Stubs(), 3)), // §5.4.1 pruning heuristic
			}
			for _, st := range strategies {
				for _, req := range workload {
					st.Route(req)
				}
				stats := st.Stats()
				cells[i] = append(cells[i], []any{fmt.Sprintf("%d", g.NumADs()), st.Name(),
					stats.PrecomputeExpansions, stats.OnDemandExpansions,
					metrics.Ratio(float64(stats.Hits), float64(stats.Hits+stats.Misses)),
					stats.Failures, stats.CacheEntries})
			}
		})
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E7 — route synthesis strategies",
			"ADs", "strategy", "precompute-work", "ondemand-work", "hit-rate", "fail", "table-size")
		for _, size := range cells {
			for _, c := range size {
				t.AddRow(c...)
			}
		}
		t.AddNote("work = search-state expansions; workload = 400 Zipf-skewed requests (skew: busiest decile carries most traffic)")
		t.AddNote("precompute-everything pays the full cost up front and grows fastest with internet size (§5.4.1)")
		return t
	}}
}

package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols/orwg"
	"repro/internal/trafficgen"
)

// E8PolicyGranularity sweeps policy granularity (terms per transit AD) and
// measures the costs the paper attributes to fine-grained policy (§5.4.1):
// more policy terms, a larger flooded database, more flooding traffic, and
// costlier route synthesis. Every granularity's run is independent and runs
// on every core.
func E8PolicyGranularity(seed int64) *metrics.Table {
	return e8Rows(seed).run(0)
}

// e8Rows makes one task per granularity, the finest first. The topology and
// requests are shared read-only; each task generates its own policy
// database, oracle and ORWG system.
func e8Rows(seed int64) rows {
	topo := defaultTopology(seed)
	g := topo.Graph
	reqs := trafficgen.AllPairs(g, true, 0, 0)

	granularities := []int{1, 2, 4, 8, 16}
	cells := make([][]any, len(granularities))
	var tasks []func()
	for i := len(granularities) - 1; i >= 0; i-- {
		granularity := granularities[i]
		tasks = append(tasks, func() {
			db := policy.Generate(g, policy.GenConfig{
				Seed:            seed + int64(granularity),
				TermsPerTransit: granularity,
			})
			oracle := core.NewOracle(g, db)
			sys := orwg.New(g, db, orwg.Config{})
			sys.Converge(convergenceLimit)
			floodBytes := sys.Network().Stats.BytesSent
			work := 0
			okCount, routable := 0, 0
			for _, req := range reqs {
				if oracle.HasRoute(req) {
					routable++
				}
				res := sys.Establish(req)
				work += res.SynthesisExpansions
				if res.OK {
					okCount++
				}
			}
			cells[i] = []any{fmt.Sprintf("%d", granularity), db.NumTerms(), sys.LSDBBytes(), floodBytes,
				float64(work) / float64(len(reqs)),
				metrics.Ratio(float64(okCount), float64(routable))}
		})
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E8 — cost of policy granularity",
			"terms/transit", "total-terms", "lsdb-bytes", "flood-bytes", "mean-synthesis-work", "availability")
		for _, c := range cells {
			t.AddRow(c...)
		}
		t.AddNote("granularity partitions each transit's policy over destination subsets (finer terms, same semantics)")
		return t
	}}
}

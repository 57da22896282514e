package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols/orwg"
)

// E8PolicyGranularity sweeps policy granularity (terms per transit AD) and
// measures the costs the paper attributes to fine-grained policy (§5.4.1):
// more policy terms, a larger flooded database, more flooding traffic, and
// costlier route synthesis.
func E8PolicyGranularity(seed int64) *metrics.Table {
	topo := defaultTopology(seed)
	g := topo.Graph
	reqs := core.AllPairsRequests(g, true, 0, 0)

	t := metrics.NewTable("E8 — cost of policy granularity",
		"terms/transit", "total-terms", "lsdb-bytes", "flood-bytes", "mean-synthesis-work", "availability")
	for _, granularity := range []int{1, 2, 4, 8, 16} {
		db := policy.Generate(g, policy.GenConfig{
			Seed:            seed + int64(granularity),
			TermsPerTransit: granularity,
		})
		oracle := core.NewOracle(g, db)
		sys := orwg.New(g, db, orwg.Config{Seed: seed})
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
		t.AddRow(fmt.Sprintf("%d", granularity), db.NumTerms(), sys.LSDBBytes(), floodBytes,
			float64(work)/float64(len(reqs)),
			metrics.Ratio(float64(okCount), float64(routable)))
	}
	t.AddNote("granularity partitions each transit's policy over destination subsets (finer terms, same semantics)")
	return t
}

package synthesis

import (
	"fmt"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/trafficgen"
)

// New builds the named strategy over (g, db), sized to a workload spread
// over qosClasses x uciClasses traffic classes (< 1 means class 0 only):
// "precomputed" covers every ordered stub pair in every class, "hybrid" the
// hottest tenth of the workload, "pruned" each stub's two-hop neighbourhood
// in every class, and "on-demand" nothing.
func New(name string, g *ad.Graph, db *policy.DB, workload []policy.Request, qosClasses, uciClasses int) (Strategy, error) {
	switch name {
	case "on-demand":
		return NewOnDemand(g, db), nil
	case "precomputed":
		var all []policy.Request
		for qos := 0; qos < max(qosClasses, 1); qos++ {
			for uci := 0; uci < max(uciClasses, 1); uci++ {
				all = append(all, trafficgen.AllPairs(g, true, policy.QOS(qos), policy.UCI(uci))...)
			}
		}
		return NewPrecomputed(g, db, all), nil
	case "hybrid":
		return NewHybrid(g, db, trafficgen.Hottest(workload, max(len(workload)/10, 1))), nil
	case "pruned":
		return NewPrunedConfig(g, db, g.Stubs(), PrunedConfig{
			HopRadius: 2, QOSClasses: qosClasses, UCIClasses: uciClasses,
		}), nil
	}
	return nil, fmt.Errorf("unknown strategy %q; choose on-demand, precomputed, hybrid, or pruned", name)
}

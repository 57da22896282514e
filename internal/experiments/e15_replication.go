package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/ad"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/wire"
)

// E15LogicalClusterCost quantifies the paper's §5.1.1 footnote: to widen
// the range of policies expressible in a partial ordering, "the same
// physical group of AD resources may be replicated and represented as
// multiple logical clusters ... However, logical replication requires that
// the replicated region be assigned multiple network addresses in order to
// determine which FIB should be applied to a particular packet."
//
// The cost model: each attribute-distinct policy regime at a transit AD
// (distinct source-set among its terms) needs its own logical cluster, and
// every logical cluster carries a full per-destination per-QOS FIB at every
// AD. The experiment sweeps policy granularity and compares the resulting
// ECMA-with-replication state and address consumption against ORWG's
// flooded policy database, which expresses the same policies directly.
func E15LogicalClusterCost(seed int64) *metrics.Table {
	t := metrics.NewTable("E15 — logical cluster replication cost (ECMA footnote) vs ORWG",
		"restriction", "transits", "terms", "logical-clusters", "addresses", "ecma-replicated-FIB-rows", "orwg-lsdb-bytes")
	topo := defaultTopology(seed)
	g := topo.Graph
	n := g.NumADs()

	rng := rand.New(rand.NewSource(seed))
	all := g.IDs()
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		// Build a policy set whose transit ADs each maintain a number of
		// distinct source regimes proportional to the restriction level:
		// at 0, one open term; at 1, up to five disjoint source groups.
		db := policy.NewDB()
		regimesPer := 1 + int(p*4)
		for _, info := range g.ADs() {
			if info.Class != ad.Transit && info.Class != ad.Hybrid {
				continue
			}
			if regimesPer == 1 {
				db.Add(policy.OpenTerm(info.ID, 0))
				continue
			}
			// Partition the AD space into regimesPer source groups.
			perm := rng.Perm(len(all))
			chunk := (len(all) + regimesPer - 1) / regimesPer
			for k := 0; k < regimesPer; k++ {
				lo, hi := k*chunk, (k+1)*chunk
				if lo >= len(all) {
					break
				}
				if hi > len(all) {
					hi = len(all)
				}
				srcs := make([]ad.ID, 0, hi-lo)
				for _, idx := range perm[lo:hi] {
					srcs = append(srcs, all[idx])
				}
				term := policy.OpenTerm(info.ID, 0)
				term.Sources = policy.SetOf(srcs...)
				db.Add(term)
			}
		}
		transits, terms := 0, 0
		clusters := 0
		for _, info := range g.ADs() {
			ts := db.Terms(info.ID)
			if len(ts) == 0 {
				continue
			}
			transits++
			terms += len(ts)
			// Distinct source regimes at this AD.
			regimes := map[string]bool{}
			for _, term := range ts {
				regimes[term.Sources.String()] = true
			}
			clusters += len(regimes)
		}
		// Addresses: one per logical cluster plus one per ordinary AD.
		addresses := (n - transits) + clusters
		// Replicated FIB rows: every AD keeps one row per destination
		// per logical topology (each extra cluster replicates the
		// whole routing database, per the footnote).
		fibRows := n * n // baseline: one FIB, all dests, all ADs
		extra := clusters - transits
		if extra > 0 {
			fibRows += extra * n * n
		}
		// ORWG expresses the same policies as flooded terms.
		lsdbBytes := 0
		for _, info := range g.ADs() {
			lsa := &wire.LSA{Origin: info.ID, Seq: 1, Terms: db.Terms(info.ID)}
			for _, l := range g.Incident(info.ID) {
				other, _ := l.Other(info.ID)
				lsa.Links = append(lsa.Links, wire.LSALink{Neighbor: other, Cost: l.Cost, Up: true})
			}
			lsdbBytes += len(wire.Marshal(lsa))
		}
		t.AddRow(fmt.Sprintf("%.2f", p), transits, terms, clusters, addresses, fibRows, lsdbBytes)
	}
	t.AddNote("each attribute-distinct source regime at a transit AD needs one logical cluster (its own address + replicated FIBs everywhere)")
	t.AddNote("ORWG floods the same policies as terms: state grows with terms, not with cluster x destination products")
	return t
}

package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/idrp"
	"repro/internal/protocols/orwg"
)

// E4QOSScaling sweeps the number of QOS classes and measures routing state
// and update traffic. The paper (§3, §5.1.1): per-QOS FIB replication in
// the DV designs "does not scale well with the number of possible packet
// classifications", whereas ORWG's state is the flooded policy database
// plus per-flow handles, independent of the class count.
func E4QOSScaling(seed int64) *metrics.Table {
	t := metrics.NewTable("E4 — state and traffic vs number of QOS classes",
		"qos-classes", "ecma-state", "ecma-bytes", "idrp-state", "idrp-bytes", "orwg-state", "orwg-bytes")
	for _, q := range []int{1, 2, 4, 8, 16} {
		topo := defaultTopology(seed)
		g := topo.Graph
		db := policy.Generate(g, policy.GenConfig{
			Seed:       seed + int64(q),
			QOSClasses: q,
			// All transits offer all classes so state growth is the
			// protocol's, not the policy's.
			QOSCoverage: 1.0,
		})
		oracle := core.NewOracle(g, db)
		reqs := core.AllPairsRequests(g, true, 0, 0)

		mEcma := core.RunScenario(ecma.New(g, db, ecma.Config{Seed: seed, QOSClasses: q}), oracle, reqs, convergenceLimit)
		mIdrp := core.RunScenario(idrp.New(g, db, idrp.Config{Seed: seed, QOSClasses: q}), oracle, reqs, convergenceLimit)
		mOrwg := core.RunScenario(orwg.New(g, db, orwg.Config{Seed: seed}), oracle, reqs, convergenceLimit)
		t.AddRow(fmt.Sprintf("%d", q),
			mEcma.StateEntries, mEcma.Bytes,
			mIdrp.StateEntries, mIdrp.Bytes,
			mOrwg.StateEntries, mOrwg.Bytes)
	}
	t.AddNote("DV designs replicate FIBs per class; ORWG state is LSDB + per-flow handles (class-independent)")
	return t
}

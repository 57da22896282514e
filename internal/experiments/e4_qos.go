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
//
// Every (class count, protocol) run is independent and runs on every core.
func E4QOSScaling(seed int64) *metrics.Table {
	return e4Rows(seed).run(0)
}

// e4Rows makes one task per (class count, protocol) pair, the largest class
// count first so that the longest runs start earliest. Every task reads one
// topology; the three protocols of a class count share its policy database
// and oracle read-only.
func e4Rows(seed int64) rows {
	topo := defaultTopology(seed)
	g := topo.Graph
	reqs := core.AllPairsRequests(g, true, 0, 0)

	classes := []int{1, 2, 4, 8, 16}
	results := make([][3]core.Metrics, len(classes))
	var tasks []func()
	for i := len(classes) - 1; i >= 0; i-- {
		q := classes[i]
		db := policy.Generate(g, policy.GenConfig{
			Seed:       seed + int64(q),
			QOSClasses: q,
			// All transits offer all classes so state growth is the
			// protocol's, not the policy's.
			QOSCoverage: 1.0,
		})
		oracle := core.NewOracle(g, db)
		systems := [3]func() core.System{
			func() core.System { return ecma.New(g, db, ecma.Config{QOSClasses: q}) },
			func() core.System { return idrp.New(g, db, idrp.Config{QOSClasses: q}) },
			func() core.System { return orwg.New(g, db, orwg.Config{}) },
		}
		for j, sys := range systems {
			tasks = append(tasks, func() { results[i][j] = core.RunScenario(sys(), oracle, reqs, convergenceLimit) })
		}
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E4 — state and traffic vs number of QOS classes",
			"qos-classes", "ecma-state", "ecma-bytes", "idrp-state", "idrp-bytes", "orwg-state", "orwg-bytes")
		for i, q := range classes {
			mEcma, mIdrp, mOrwg := results[i][0], results[i][1], results[i][2]
			t.AddRow(fmt.Sprintf("%d", q),
				mEcma.StateEntries, mEcma.Bytes,
				mIdrp.StateEntries, mIdrp.Bytes,
				mOrwg.StateEntries, mOrwg.Bytes)
		}
		t.AddNote("DV designs replicate FIBs per class; ORWG state is LSDB + per-flow handles (class-independent)")
		return t
	}}
}

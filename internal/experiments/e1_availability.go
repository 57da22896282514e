package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols"
	"repro/internal/trafficgen"
)

// E1RouteAvailability sweeps policy restrictiveness and measures, for each
// architecture, the fraction of oracle-routable requests delivered over
// legal paths. The paper's claim (§4.4, §5.1–5.2): hop-by-hop designs hide
// legal routes from sources as policies become source-specific, while
// source routing over global link state finds every route that exists.
//
// Every (restriction, protocol) run is independent and runs on every core.
func E1RouteAvailability(seed int64) *metrics.Table {
	return e1Rows(seed).run(0)
}

// e1Rows makes one task per (restriction, protocol) pair. The five
// protocols of a restriction level share its policy database and oracle
// read-only.
func e1Rows(seed int64) rows {
	topo := defaultTopology(seed)
	g := topo.Graph
	reqs := trafficgen.AllPairs(g, true, 0, 0)

	levels := []float64{0, 0.25, 0.5, 0.75, 1.0}
	results := make([][5]core.Metrics, len(levels))
	var tasks []func()
	for i, p := range levels {
		db := policy.Generate(g, policy.GenConfig{
			Seed:                  seed + int64(p*100),
			SourceRestrictionProb: p,
			SourceFraction:        0.5,
		})
		oracle := core.NewOracle(g, db)
		for j, name := range []string{"bgp", "ecma", "idrp", "lshh", "orwg"} {
			d := protocols.Lookup(name)
			tasks = append(tasks, func() { results[i][j] = core.RunScenario(d.New(g, db), oracle, reqs, convergenceLimit) })
		}
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E1 — route availability vs policy restrictiveness",
			"restriction", "routable", "bgp", "bgp-illegal", "ecma", "ecma-illegal", "idrp", "lshh", "orwg")
		for i, p := range levels {
			mBgp, mEcma, mIdrp, mLshh, mOrwg := results[i][0], results[i][1], results[i][2], results[i][3], results[i][4]
			t.AddRow(fmt.Sprintf("%.2f", p), mBgp.OracleRoutable,
				mBgp.Availability(), mBgp.DeliveredIllegal,
				mEcma.Availability(), mEcma.DeliveredIllegal,
				mIdrp.Availability(), mLshh.Availability(), mOrwg.Availability())
		}
		t.AddNote("restriction = probability a transit AD limits which sources may use it")
		t.AddNote("bgp/ecma illegal columns count deliveries violating source-specific terms those designs cannot express")
		return t
	}}
}

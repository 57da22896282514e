package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/idrp"
	"repro/internal/protocols/lshh"
	"repro/internal/protocols/orwg"
)

// E1RouteAvailability sweeps policy restrictiveness and measures, for each
// architecture, the fraction of oracle-routable requests delivered over
// legal paths. The paper's claim (§4.4, §5.1–5.2): hop-by-hop designs hide
// legal routes from sources as policies become source-specific, while
// source routing over global link state finds every route that exists.
func E1RouteAvailability(seed int64) *metrics.Table {
	topo := defaultTopology(seed)
	g := topo.Graph
	reqs := core.AllPairsRequests(g, true, 0, 0)

	t := metrics.NewTable("E1 — route availability vs policy restrictiveness",
		"restriction", "routable", "bgp", "bgp-illegal", "ecma", "ecma-illegal", "idrp", "lshh", "orwg")
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		db := policy.Generate(g, policy.GenConfig{
			Seed:                  seed + int64(p*100),
			SourceRestrictionProb: p,
			SourceFraction:        0.5,
		})
		oracle := core.NewOracle(g, db)
		routable := 0
		for _, r := range reqs {
			if oracle.HasRoute(r) {
				routable++
			}
		}
		mBgp := core.RunScenario(idrp.New(g, db, idrp.Config{Seed: seed, BGPMode: true}), oracle, reqs, convergenceLimit)
		mEcma := core.RunScenario(ecma.New(g, db, ecma.Config{Seed: seed}), oracle, reqs, convergenceLimit)
		mIdrp := core.RunScenario(idrp.New(g, db, idrp.Config{Seed: seed}), oracle, reqs, convergenceLimit)
		mLshh := core.RunScenario(lshh.New(g, db, lshh.Config{Seed: seed}), oracle, reqs, convergenceLimit)
		mOrwg := core.RunScenario(orwg.New(g, db, orwg.Config{Seed: seed}), oracle, reqs, convergenceLimit)
		t.AddRow(fmt.Sprintf("%.2f", p), routable,
			mBgp.Availability(), mBgp.DeliveredIllegal,
			mEcma.Availability(), mEcma.DeliveredIllegal,
			mIdrp.Availability(), mLshh.Availability(), mOrwg.Availability())
	}
	t.AddNote("restriction = probability a transit AD limits which sources may use it")
	t.AddNote("bgp/ecma illegal columns count deliveries violating source-specific terms those designs cannot express")
	return t
}

package experiments

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/egp"
	"repro/internal/protocols/idrp"
	"repro/internal/protocols/lshh"
	"repro/internal/protocols/orwg"
	"repro/internal/protocols/plaindv"
	"repro/internal/topology"
)

// E19MultihomedStubs verifies the model requirement of §2.1: "Multi-homed
// ADS are stub ADS that have more than one inter-AD connection but that
// wish to disallow any transit traffic." A topology rich in multi-homed
// stubs (which create tempting shortcuts) is routed by every architecture;
// the experiment counts deliveries that cut through a multi-homed stub —
// each one a violation of the stub's no-transit wish.
func E19MultihomedStubs(seed int64) *metrics.Table {
	topo := topology.Generate(topology.Config{
		Seed: seed, Backbones: 2, RegionalsPerBackbone: 3,
		CampusesPerParent: 3, LateralProb: 0.15, MultihomedProb: 0.5,
	})
	g := topo.Graph
	db := policy.OpenDB(g) // open transit policy; stubs still advertise nothing
	oracle := core.NewOracle(g, db)
	reqs := core.AllPairsRequests(g, true, 0, 0)

	multihomed := map[ad.ID]bool{}
	nMulti := 0
	for _, info := range g.ADs() {
		if info.Class == ad.MultihomedStub {
			multihomed[info.ID] = true
			nMulti++
		}
	}

	systems := []core.System{
		plaindv.New(g, plaindv.Config{SplitHorizon: true, Seed: seed}),
		egp.New(g, egp.Config{Seed: seed}),
		ecma.New(g, db, ecma.Config{Seed: seed}),
		idrp.New(g, db, idrp.Config{Seed: seed}),
		lshh.New(g, db, lshh.Config{Seed: seed}),
		orwg.New(g, db, orwg.Config{Seed: seed}),
	}
	t := metrics.NewTable("E19 — transit through multi-homed stubs (§2.1 no-transit requirement)",
		"protocol", "delivered", "through-multihomed", "availability")
	for _, sys := range systems {
		sys.Converge(convergenceLimit)
		delivered, through := 0, 0
		legal := 0
		routable := 0
		for _, req := range reqs {
			if oracle.HasRoute(req) {
				routable++
			}
			out := sys.Route(req)
			if !out.Delivered {
				continue
			}
			delivered++
			if oracle.Legal(out.Path, req) {
				legal++
			}
			for i := 1; i < len(out.Path)-1; i++ {
				if multihomed[out.Path[i]] {
					through++
					break
				}
			}
		}
		t.AddRow(sys.Name(), delivered, through,
			metrics.Ratio(float64(legal), float64(routable)))
	}
	t.AddNote("%d of %d ADs are multi-homed stubs; shortest physical paths often cut through them", nMulti, g.NumADs())
	t.AddNote("policy-aware designs never transit a stub because stubs advertise no terms; plain DV and EGP cannot tell")
	return t
}

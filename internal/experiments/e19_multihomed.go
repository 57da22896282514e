package experiments

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols"
	"repro/internal/topology"
)

// E19MultihomedStubs verifies the model requirement of §2.1: "Multi-homed
// ADS are stub ADS that have more than one inter-AD connection but that
// wish to disallow any transit traffic." A topology rich in multi-homed
// stubs (which create tempting shortcuts) is routed by every architecture;
// the experiment counts deliveries that cut through a multi-homed stub —
// each one a violation of the stub's no-transit wish. Every protocol's run
// is independent and runs on every core.
func E19MultihomedStubs(seed int64) *metrics.Table {
	return e19Rows(seed).run(0)
}

// e19Rows makes one task per protocol, each building its system inside the
// task, in reverse table order: the ORWG and link-state runs, the longest,
// start first. The topology, policy database, oracle, requests and the set of
// multi-homed stubs are shared read-only.
func e19Rows(seed int64) rows {
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

	names := []string{"plain-dv", "egp", "ecma", "idrp", "lshh", "orwg"}
	cells := make([][]any, len(names))
	var tasks []func()
	for i := len(names) - 1; i >= 0; i-- {
		tasks = append(tasks, func() {
			sys := protocols.Lookup(names[i]).New(g, db)
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
				for _, hop := range out.Path[1 : len(out.Path)-1] {
					if multihomed[hop] {
						through++
						break
					}
				}
			}
			cells[i] = []any{sys.Name(), delivered, through,
				metrics.Ratio(float64(legal), float64(routable))}
		})
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E19 — transit through multi-homed stubs (§2.1 no-transit requirement)",
			"protocol", "delivered", "through-multihomed", "availability")
		for _, c := range cells {
			t.AddRow(c...)
		}
		t.AddNote("%d of %d ADs are multi-homed stubs; shortest physical paths often cut through them", nMulti, g.NumADs())
		t.AddNote("policy-aware designs never transit a stub because stubs advertise no terms; plain DV and EGP cannot tell")
		return t
	}}
}

package experiments

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols"
	"repro/internal/protocols/lshh"
	"repro/internal/trafficgen"
)

// E18PathStretch measures §4.1's acknowledged cost of routing at the AD
// abstraction and of each design's route selection: "As with any
// abstraction or hierarchical routing, some optimality may be lost."
// Stretch is the mean ratio of the delivered path's policy cost to the
// optimal legal cost (1.0 = always optimal). ECMA's valley-free constraint
// and IDRP's single-selected-route both force detours; ORWG's source
// synthesis is cost-optimal by construction. Every protocol's run is
// independent and runs on every core.
func E18PathStretch(seed int64) *metrics.Table {
	return e18Rows(seed).run(0)
}

// e18Rows makes one task per protocol, each building its system inside the
// task, in reverse table order: the link-state and ORWG runs, the longest,
// start first. The topology, policy database, oracle and requests are shared
// read-only.
func e18Rows(seed int64) rows {
	topo := defaultTopology(seed)
	g := topo.Graph
	// Heterogeneous transit costs and per-destination term splits make
	// the cheapest legal route non-obvious, so selection quality shows.
	// Stretch isolates selection quality, so policies stay open (E1
	// covers availability loss) but costs vary widely.
	db := policy.Generate(g, policy.GenConfig{
		Seed:            seed + 1,
		TermsPerTransit: 2,
		MaxTermCost:     8,
	})
	oracle := core.NewOracle(g, db)
	reqs := trafficgen.AllPairs(g, true, 0, 0)

	systems := []struct {
		label string
		build func(g *ad.Graph, db *policy.DB) core.System
	}{
		{"ecma", protocols.Lookup("ecma").New},
		{"idrp", protocols.Lookup("idrp").New},
		{"idrp-multi", protocols.Lookup("idrp-multi").New},
		{"ls-hop-by-hop", protocols.Lookup("lshh").New},
		{"lshh-inconsistent", func(g *ad.Graph, db *policy.DB) core.System {
			return lshh.New(g, db, lshh.Config{InconsistentTieBreak: true})
		}},
		{"orwg", protocols.Lookup("orwg").New},
	}
	results := make([]core.Metrics, len(systems))
	var tasks []func()
	for i := len(systems) - 1; i >= 0; i-- {
		tasks = append(tasks, func() { results[i] = core.RunScenario(systems[i].build(g, db), oracle, reqs, convergenceLimit) })
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E18 — path stretch (delivered cost / optimal legal cost)",
			"protocol", "delivered-legal", "mean-stretch", "loops", "availability")
		for i, e := range systems {
			m := results[i]
			t.AddRow(e.label, m.DeliveredLegal, m.Stretch(), m.Looped, m.Availability())
		}
		t.AddNote("stretch computed only over legally delivered pairs; 1.0 means cost-optimal routes")
		t.AddNote("the cost-consistent designs deliver optimal-or-nothing: their penalty is availability, not stretch")
		t.AddNote("lshh-inconsistent (odd ADs minimize hops, not cost) shows the §5.3 consistency requirement: detours and possible loops")
		return t
	}}
}

package experiments

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/idrp"
	"repro/internal/protocols/lshh"
	"repro/internal/protocols/orwg"
)

// E18PathStretch measures §4.1's acknowledged cost of routing at the AD
// abstraction and of each design's route selection: "As with any
// abstraction or hierarchical routing, some optimality may be lost."
// Stretch is the mean ratio of the delivered path's policy cost to the
// optimal legal cost (1.0 = always optimal). ECMA's valley-free constraint
// and IDRP's single-selected-route both force detours; ORWG's source
// synthesis is cost-optimal by construction.
func E18PathStretch(seed int64) *metrics.Table {
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
	reqs := core.AllPairsRequests(g, true, 0, 0)

	type entry struct {
		label string
		sys   core.System
	}
	systems := []entry{
		{"ecma", ecma.New(g, db, ecma.Config{Seed: seed})},
		{"idrp", idrp.New(g, db, idrp.Config{Seed: seed})},
		{"idrp-multi", idrp.New(g, db, idrp.Config{Seed: seed, MultiRoute: 4})},
		{"ls-hop-by-hop", lshh.New(g, db, lshh.Config{Seed: seed})},
		{"lshh-inconsistent", lshh.New(g, db, lshh.Config{Seed: seed, InconsistentTieBreak: true})},
		{"orwg", orwg.New(g, db, orwg.Config{Seed: seed})},
	}
	t := metrics.NewTable("E18 — path stretch (delivered cost / optimal legal cost)",
		"protocol", "delivered-legal", "mean-stretch", "loops", "availability")
	for _, e := range systems {
		m := core.RunScenario(e.sys, oracle, reqs, convergenceLimit)
		t.AddRow(e.label, m.DeliveredLegal, m.Stretch(), m.Looped, m.Availability())
	}
	t.AddNote("stretch computed only over legally delivered pairs; 1.0 means cost-optimal routes")
	t.AddNote("the cost-consistent designs deliver optimal-or-nothing: their penalty is availability, not stretch")
	t.AddNote("lshh-inconsistent (odd ADs minimize hops, not cost) shows the §5.3 consistency requirement: detours and possible loops")
	return t
}

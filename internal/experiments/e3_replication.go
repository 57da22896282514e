package experiments

import (
	"fmt"

	"repro/internal/ad"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols/lshh"
	"repro/internal/protocols/orwg"
	"repro/internal/sim"
)

// E3SpanningTreeReplication quantifies §5.3's burden: under hop-by-hop link
// state routing with source-specific policies, a transit AD repeats the
// route computation once per traffic source, while ORWG's source routing
// relieves transit ADs of route computation entirely.
//
// Topology: k sources attached to a two-hop transit chain leading to one
// destination. Every source sends to the destination; we count route
// computations at the first transit hub. Every source count's run is
// independent and runs on every core.
func E3SpanningTreeReplication(seed int64) *metrics.Table {
	return e3Rows(seed).run(0)
}

// e3Rows makes one task per source count, the largest first. Each task
// builds its own fan-in graph and policy database, so nothing is shared, and
// nothing is drawn from the seed.
func e3Rows(seed int64) rows {
	counts := []int{2, 4, 8, 16, 32}
	cells := make([][]any, len(counts))
	var tasks []func()
	for i := len(counts) - 1; i >= 0; i-- {
		k := counts[i]
		tasks = append(tasks, func() {
			g, hub, mid, dest, sources := sourcesFanIn(k)
			// Source-specific policy: each transit admits each source via
			// a distinct term, so contexts cannot be merged.
			db := policy.NewDB()
			for _, tr := range []ad.ID{hub, mid} {
				for _, s := range sources {
					term := policy.OpenTerm(tr, 0)
					term.Sources = policy.SetOf(s)
					db.Add(term)
				}
			}

			ls := lshh.New(g, db, lshh.Config{})
			ls.Converge(600 * sim.Second)
			for _, s := range sources {
				ls.Route(policy.Request{Src: s, Dst: dest})
			}

			ow := orwg.New(g, db, orwg.Config{})
			ow.Converge(600 * sim.Second)
			sourceExpansions := 0
			for _, s := range sources {
				res := ow.Establish(policy.Request{Src: s, Dst: dest})
				sourceExpansions += res.SynthesisExpansions
			}
			// ORWG transit ADs validate setups but never compute routes.
			cells[i] = []any{fmt.Sprintf("%d", k), ls.NodeComputations(hub), ls.Expansions(), 0, sourceExpansions}
		})
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E3 — per-source computation replication at transit ADs",
			"sources", "lshh-hub-computations", "lshh-total-expansions", "orwg-transit-computations", "orwg-source-expansions")
		for _, c := range cells {
			t.AddRow(c...)
		}
		t.AddNote("lshh hub computations grow linearly with traffic sources (one spanning-tree run per source)")
		t.AddNote("orwg transit ADs perform setup validation only; computation stays at sources")
		return t
	}}
}

// sourcesFanIn builds k sources -> hub -> mid -> dest.
func sourcesFanIn(k int) (*ad.Graph, ad.ID, ad.ID, ad.ID, []ad.ID) {
	g := ad.NewGraph()
	hub := g.AddAD("hub", ad.Transit, ad.Regional)
	mid := g.AddAD("mid", ad.Transit, ad.Regional)
	dest := g.AddAD("dest", ad.Stub, ad.Campus)
	mustLink(g, ad.Link{A: hub, B: mid})
	mustLink(g, ad.Link{A: mid, B: dest})
	var sources []ad.ID
	for i := 0; i < k; i++ {
		s := g.AddAD(fmt.Sprintf("src%d", i), ad.Stub, ad.Campus)
		sources = append(sources, s)
		mustLink(g, ad.Link{A: s, B: hub})
	}
	return g, hub, mid, dest, sources
}

func mustLink(g *ad.Graph, l ad.Link) {
	if err := g.AddLink(l); err != nil {
		panic(err)
	}
}

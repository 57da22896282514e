package ad_test

import (
	"testing"

	"repro/internal/topology"
)

// BenchmarkGraphNeighbors is neighbour iteration over a ~350-AD internet
// (4 backbones, 16 regionals, 32 metros, ~300 campuses); the graph caches
// its sorted adjacency, so it should report 0 allocs/op.
func BenchmarkGraphNeighbors(b *testing.B) {
	g := topology.Generate(topology.Config{
		Seed: 42, Backbones: 4, RegionalsPerBackbone: 4,
		MetrosPerRegional: 2, CampusesPerParent: 9,
		LateralProb: 0.05, BypassProb: 0.02, BackboneChords: 2,
	}).Graph
	ids := g.IDs()
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n += len(g.Neighbors(ids[i%len(ids)]))
	}
	if n == 0 {
		b.Fatal("no neighbours")
	}
}

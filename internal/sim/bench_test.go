package sim

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/topology"
)

// largeGraph is a ~350-AD internet (4 backbones, 16 regionals, 32 metros,
// ~300 campuses).
func largeGraph() *ad.Graph {
	return topology.Generate(topology.Config{
		Seed: 42, Backbones: 4, RegionalsPerBackbone: 4,
		MetrosPerRegional: 2, CampusesPerParent: 9,
		LateralProb: 0.05, BypassProb: 0.02, BackboneChords: 2,
	}).Graph
}

// BenchmarkNetworkUpNeighbors should report 0 allocs/op: the network
// caches each AD's live adjacency.
func BenchmarkNetworkUpNeighbors(b *testing.B) {
	g := largeGraph()
	nw := NewNetwork(g, 42)
	ids := g.IDs()
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n += len(nw.UpNeighbors(ids[i%len(ids)]))
	}
	if n == 0 {
		b.Fatal("no neighbours")
	}
}

// BenchmarkNetworkFlood floods from the highest-degree AD; no nodes are
// registered, so the benchmark isolates the Send/delivery machinery itself,
// which recycles payload buffers.
func BenchmarkNetworkFlood(b *testing.B) {
	g := largeGraph()
	nw := NewNetwork(g, 42)
	hub := g.IDs()[0]
	for _, id := range g.IDs() {
		if g.Degree(id) > g.Degree(hub) {
			hub = id
		}
	}
	payload := make([]byte, 64)
	sent := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent += nw.Flood("lsa", hub, payload)
		nw.Engine.Run() // drain deliveries so buffers recycle
	}
	if sent == 0 {
		b.Fatal("flood sent nothing")
	}
}

package orwg

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

// sink keeps benchmarked results live against dead-code elimination.
var sink int

// benchTopo is the 2-backbone internet with half the transits restricting
// their sources to half the ADs.
func benchTopo() (*topology.Topology, *policy.DB) {
	topo := topology.Generate(topology.Config{
		Seed: 42, Backbones: 2, RegionalsPerBackbone: 3,
		CampusesPerParent: 3, LateralProb: 0.25, BypassProb: 0.1,
	})
	db := policy.Generate(topo.Graph, policy.GenConfig{
		Seed: 43, SourceRestrictionProb: 0.5, SourceFraction: 0.5,
	})
	return topo, db
}

func BenchmarkORWGConvergence(b *testing.B) {
	topo, db := benchTopo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := New(topo.Graph.Clone(), db, Config{})
		conv, _ := sys.Converge(600 * sim.Second)
		sink += int(conv)
	}
}

func BenchmarkORWGEstablish(b *testing.B) {
	topo, db := benchTopo()
	sys := New(topo.Graph, db, Config{})
	sys.Converge(600 * sim.Second)
	reqs := trafficgen.AllPairs(topo.Graph, true, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sys.Establish(reqs[i%len(reqs)])
		sink += int(res.Messages)
	}
}

// BenchmarkLargeFloodingConvergence is one cold start to quiescence on a
// ~350-AD internet (4 backbones, 16 regionals, 32 metros, ~300 campuses).
// messages/op and wire-bytes/op are the flood's traffic, every copy of
// every LSA, and must not move when only the simulator's cost changes.
func BenchmarkLargeFloodingConvergence(b *testing.B) {
	topo := topology.Generate(topology.Config{
		Seed: 42, Backbones: 4, RegionalsPerBackbone: 4,
		MetrosPerRegional: 2, CampusesPerParent: 9,
		LateralProb: 0.05, BypassProb: 0.02, BackboneChords: 2,
	})
	db := policy.Generate(topo.Graph, policy.GenConfig{
		Seed: 43, SourceRestrictionProb: 0.3, SourceFraction: 0.5,
	})
	b.ReportAllocs()
	b.ResetTimer()
	var st *sim.Stats
	for i := 0; i < b.N; i++ {
		sys := New(topo.Graph.Clone(), db, Config{})
		conv, ok := sys.Converge(600 * sim.Second)
		if !ok {
			b.Fatal("did not converge")
		}
		sink += int(conv)
		st = sys.Network().Stats
	}
	b.ReportMetric(float64(st.MessagesSent), "messages/op")
	b.ReportMetric(float64(st.BytesSent), "wire-bytes/op")
}

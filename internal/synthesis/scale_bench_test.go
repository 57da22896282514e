package synthesis_test

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/synthesis"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

// sink keeps benchmarked results live against dead-code elimination.
var sink int

// BenchmarkSynthesisEnumerate lists up to 16 legal paths per request over
// the 2-backbone internet with half the transits restricting sources.
func BenchmarkSynthesisEnumerate(b *testing.B) {
	topo := topology.Generate(topology.Config{
		Seed: 42, Backbones: 2, RegionalsPerBackbone: 3,
		CampusesPerParent: 3, LateralProb: 0.25, BypassProb: 0.1,
	})
	db := policy.Generate(topo.Graph, policy.GenConfig{
		Seed: 43, SourceRestrictionProb: 0.5, SourceFraction: 0.5,
	})
	reqs := trafficgen.AllPairs(topo.Graph, true, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reqs[i%len(reqs)]
		sink += len(synthesis.EnumeratePaths(topo.Graph, db, req, synthesis.EnumerateConfig{MaxPaths: 16}))
	}
}

// BenchmarkLargeSynthesis is one search over a held snapshot of a ~350-AD
// internet (4 backbones, 16 regionals, 32 metros, ~300 campuses).
func BenchmarkLargeSynthesis(b *testing.B) {
	topo := topology.Generate(topology.Config{
		Seed: 42, Backbones: 4, RegionalsPerBackbone: 4,
		MetrosPerRegional: 2, CampusesPerParent: 9,
		LateralProb: 0.05, BypassProb: 0.02, BackboneChords: 2,
	})
	db := policy.Generate(topo.Graph, policy.GenConfig{
		Seed: 43, SourceRestrictionProb: 0.3, SourceFraction: 0.5,
	})
	reqs := trafficgen.AllPairs(topo.Graph, true, 0, 0)
	snap := synthesis.Compile(topo.Graph, db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := snap.FindRoute(reqs[i%len(reqs)])
		sink += res.Expanded
	}
}

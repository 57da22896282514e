package ecma

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkLargeECMAConvergence is one cold start to quiescence on a
// ~350-AD internet (4 backbones, 16 regionals, 32 metros, ~300 campuses).
func BenchmarkLargeECMAConvergence(b *testing.B) {
	topo := topology.Generate(topology.Config{
		Seed: 42, Backbones: 4, RegionalsPerBackbone: 4,
		MetrosPerRegional: 2, CampusesPerParent: 9,
		LateralProb: 0.05, BypassProb: 0.02, BackboneChords: 2,
	})
	db := policy.Generate(topo.Graph, policy.GenConfig{
		Seed: 43, SourceRestrictionProb: 0.3, SourceFraction: 0.5,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := New(topo.Graph.Clone(), db, Config{Seed: 42})
		if _, ok := sys.Converge(600 * sim.Second); !ok {
			b.Fatal("did not converge")
		}
	}
}

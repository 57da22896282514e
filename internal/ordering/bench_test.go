package ordering

import (
	"testing"

	"repro/internal/topology"
)

func BenchmarkOrderingFromLevels(b *testing.B) {
	g := topology.Generate(topology.Config{
		Seed: 42, Backbones: 2, RegionalsPerBackbone: 3,
		CampusesPerParent: 3, LateralProb: 0.25, BypassProb: 0.1,
	}).Graph
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n += len(FromLevels(g).rank)
	}
	if n == 0 {
		b.Fatal("empty ordering")
	}
}

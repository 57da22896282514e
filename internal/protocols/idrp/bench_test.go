package idrp

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkIDRPConverge is E9's largest internet at seed 42: 4 backbones,
// regionals, metros and campuses, with 30% of transits restricting their
// sources to half the ADs. One op is a cold start to quiescence; messages/op
// and bytes/op are the convergence traffic E9 reports for idrp, and must not
// move when only the protocol's speed changes.
func BenchmarkIDRPConverge(b *testing.B) {
	topo := topology.Generate(topology.Config{
		Seed: 42, Backbones: 4, RegionalsPerBackbone: 4, MetrosPerRegional: 2,
		CampusesPerParent: 3, LateralProb: 0.05, BypassProb: 0.05,
	})
	db := policy.Generate(topo.Graph, policy.GenConfig{Seed: 43, SourceRestrictionProb: 0.3, SourceFraction: 0.5})
	b.ReportAllocs()
	b.ResetTimer()
	var st *sim.Stats
	for i := 0; i < b.N; i++ {
		s := New(topo.Graph.Clone(), db, Config{})
		if _, ok := s.Converge(600 * sim.Second); !ok {
			b.Fatal("did not converge")
		}
		st = s.Network().Stats
	}
	b.ReportMetric(float64(st.MessagesSent), "messages/op")
	b.ReportMetric(float64(st.BytesSent), "wire-bytes/op")
}

package synthesis

import (
	"testing"
	"unsafe"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

// benchWorld is the internet, the policy regime and the traffic of the
// repository benchmark's miss_thrash workload (bench/inputs.go at full
// size): 3 backbones down to campuses, mostly permissive terms, uniform
// stub pairs over 2 QOS x 2 UCI classes with the hour spread.
func benchWorld() (*ad.Graph, *policy.DB, []policy.Request) {
	topo := topology.Generate(topology.Config{
		Seed:      42,
		Backbones: 3, RegionalsPerBackbone: 4, MetrosPerRegional: 2,
		CampusesPerParent: 3, LateralProb: 0.25, BypassProb: 0.1,
		MultihomedProb: 0.15, HybridProb: 0.15,
	})
	db := policy.Generate(topo.Graph, policy.GenConfig{
		Seed: 42, QOSClasses: 2, UCIClasses: 2,
		QOSCoverage: 1.0, UCICoverage: 1.0, HybridSourceFraction: 0.9,
		SourceRestrictionProb: 0.2, SourceFraction: 0.7,
		DestRestrictionProb: 0.1, DestFraction: 0.7, AvoidProb: 0.1,
	})
	tape := trafficgen.Generate(topo.Graph, trafficgen.Config{
		Seed: 42, Requests: 4096, StubsOnly: true, Model: "uniform",
		HourSpread: true, QOSClasses: 2, UCIClasses: 2,
	})
	return topo.Graph, db, tape
}

// BenchmarkFindRoute is the search-kernel row of the layer ladder: one
// source search per op over a held snapshot of the benchmark's internet,
// split by outcome so that each half shows what it costs. found runs the
// tape's searches that find a route; noroute runs those that find none,
// which the reachability pass settles before the search expands a state.
// expansions/op must not move when only the kernel's speed changes
// (TestExpandedPinned fails if the tape's total does); allocs/op is the
// returned path.
func BenchmarkFindRoute(b *testing.B) {
	g, db, tape := benchWorld()
	snap := Compile(g, db)
	var found, none []policy.Request
	for _, req := range tape {
		if snap.FindRoute(req).Found {
			found = append(found, req)
		} else {
			none = append(none, req)
		}
	}
	for _, sub := range []struct {
		name string
		tape []policy.Request
	}{{"found", found}, {"noroute", none}} {
		b.Run(sub.name, func(b *testing.B) {
			b.ReportAllocs()
			expanded := 0
			for i := 0; i < b.N; i++ {
				expanded += snap.FindRoute(sub.tape[i%len(sub.tape)]).Expanded
			}
			b.ReportMetric(float64(expanded)/float64(b.N), "expansions/op")
		})
	}
}

// BenchmarkCompile is what every write-plane call and every holder whose
// graph moved pays once: the benchmark's internet into a Snapshot.
// snapshot-B/AD is the size of the compiled tables per AD: the search state
// a route server keeps per (graph, policy) state, as
// routeserver.bytes_per_entry is what it keeps per cached route.
func BenchmarkCompile(b *testing.B) {
	g, db, _ := benchWorld()
	b.ReportAllocs()
	b.ResetTimer()
	var s *Snapshot
	for i := 0; i < b.N; i++ {
		s = Compile(g, db)
	}
	bytes := 4*len(s.ids) + 4*len(s.adjOff) + 8*len(s.edges) + 4*len(s.tail) +
		4*len(s.termOff) + int(unsafe.Sizeof(term{}))*len(s.terms) + 8*len(s.bits) +
		int(unsafe.Sizeof(criteria{}))*len(s.crit)
	for _, ids := range s.absent {
		bytes += 24 + 4*len(ids)
	}
	b.ReportMetric(float64(bytes)/float64(g.NumADs()), "snapshot-B/AD")
}

// BenchmarkFindRouteOneShot is the price of Compile(g, db).FindRoute(req):
// a compile and a search per op. It is on record so that nobody leaves a
// compile inside a loop.
func BenchmarkFindRouteOneShot(b *testing.B) {
	g, db, tape := benchWorld()
	b.ReportAllocs()
	b.ResetTimer()
	expanded := 0
	for i := 0; i < b.N; i++ {
		expanded += Compile(g, db).FindRoute(tape[i%len(tape)]).Expanded
	}
	b.ReportMetric(float64(expanded)/float64(b.N), "expansions/op")
}

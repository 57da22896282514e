package core_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/plaindv"
	"repro/internal/sim"
	"repro/internal/topology"
)

// dvPhase is what one phase of a distance-vector run leaves behind: the
// messages and bytes sent during it, the convergence time the phase's
// Converge returned, and a hash of every pair's forwarding outcome after it.
type dvPhase struct {
	Msgs, Bytes uint64
	Conv        sim.Time
	Paths       uint64
}

// dvPinWorlds are the generated internets the pin runs on.
var dvPinWorlds = []topology.Config{
	{Seed: 90, Backbones: 2, RegionalsPerBackbone: 3, CampusesPerParent: 2,
		LateralProb: 0.3, BypassProb: 0.1, MultihomedProb: 0.2},
	{Seed: 91, Backbones: 3, RegionalsPerBackbone: 2, MetrosPerRegional: 2, CampusesPerParent: 2,
		LateralProb: 0.25, BypassProb: 0.1, HybridProb: 0.2},
	{Seed: 92, Backbones: 4, RegionalsPerBackbone: 2, CampusesPerParent: 3,
		LateralProb: 0.2, BackboneChords: 1},
}

// dvPinConfigs are the five distance-vector configurations the pin runs.
var dvPinConfigs = []struct {
	name  string
	build func(g *ad.Graph, db *policy.DB) core.System
}{
	{"plain-dv", func(g *ad.Graph, _ *policy.DB) core.System {
		return plaindv.New(g, plaindv.Config{SplitHorizon: true})
	}},
	{"plain-dv-nosplit", func(g *ad.Graph, _ *policy.DB) core.System {
		return plaindv.New(g, plaindv.Config{SplitHorizon: false})
	}},
	{"ecma", func(g *ad.Graph, db *policy.DB) core.System {
		return ecma.New(g, db, ecma.Config{})
	}},
	{"ecma-noorder", func(g *ad.Graph, db *policy.DB) core.System {
		return ecma.New(g, db, ecma.Config{DisableOrdering: true})
	}},
	{"ecma-qos3", func(g *ad.Graph, db *policy.DB) core.System {
		return ecma.New(g, db, ecma.Config{QOSClasses: 3})
	}},
}

// dvPinWant holds each world's and configuration's cold start, failure and
// restore phases.
var dvPinWant = map[string][3]dvPhase{
	"world0/plain-dv":         {{552, 15392, 46774, 0xc6ad83bb15b0732f}, {99, 6704, 91857, 0xf581f0417fc050f3}, {45, 3730, 140895, 0x3698da032393570f}},
	"world0/plain-dv-nosplit": {{738, 22268, 46774, 0xc48b85f2ed237b0a}, {2174, 95734, 192395, 0x899c30702c94c752}, {64, 5414, 241433, 0x9531d594a5240cda}},
	"world0/ecma":             {{324, 9364, 47248, 0xad797dd06ee00f8f}, {82, 5302, 84934, 0xf71b59d1ccaa482e}, {34, 3054, 124068, 0xad797dd06ee00f8f}},
	"world0/ecma-noorder":     {{418, 13188, 47248, 0xc21d6e6224f2b5eb}, {1470, 52490, 277966, 0x6158af28ab32abeb}, {45, 3620, 323996, 0xc21d6e6224f2b5eb}},
	"world0/ecma-qos3":        {{324, 11354, 47354, 0xf04163a1e7291bb4}, {82, 6042, 85298, 0x61dd42f9139b4d1a}, {34, 3354, 124446, 0xf04163a1e7291bb4}},
	"world1/plain-dv":         {{1206, 47736, 53788, 0x2c5c76be59c03067}, {189, 17944, 125566, 0xfbfe0c42e6eeb9aa}, {48, 6398, 178341, 0x23d0ad4b9478193c}},
	"world1/plain-dv-nosplit": {{1818, 78848, 53796, 0x2c5c76be59c03067}, {268, 26628, 125603, 0xfbfe0c42e6eeb9aa}, {76, 9696, 178371, 0x23d0ad4b9478193c}},
	"world1/ecma":             {{707, 25252, 50129, 0x16d3b99919f3e4fb}, {113, 7628, 86845, 0xa14a6ab3d7afc8aa}, {42, 4802, 131091, 0x16d3b99919f3e4fb}},
	"world1/ecma-noorder":     {{1011, 37356, 50137, 0x16d3b99919f3e4fb}, {461, 31056, 113090, 0x23d96d7b590c90e}, {57, 6142, 162012, 0x16d3b99919f3e4fb}},
	"world1/ecma-qos3":        {{735, 31420, 50257, 0xd3ededb567efb7f}, {125, 9200, 88058, 0x81722754228749c7}, {46, 5646, 141825, 0xd3ededb567efb7f}},
	"world2/plain-dv":         {{955, 37650, 67665, 0xbc2209ae4cddb0c7}, {154, 13964, 128919, 0x9eefa0aa259fd4ae}, {65, 5740, 188887, 0x8a550a3f09f755dd}},
	"world2/plain-dv-nosplit": {{1433, 61158, 67676, 0xbc2209ae4cddb0c7}, {6873, 357608, 370475, 0x9eefa0aa259fd4ae}, {105, 8830, 445126, 0x8a550a3f09f755dd}},
	"world2/ecma":             {{523, 18828, 64848, 0x2bb7f0ae3922b2ed}, {84, 7434, 109817, 0x64b8af8140f7a10}, {38, 4638, 169219, 0x2bb7f0ae3922b2ed}},
	"world2/ecma-noorder":     {{825, 31700, 64908, 0xb39a853b7284e6d9}, {5388, 238628, 580521, 0xb250b4244120b121}, {48, 4348, 652409, 0xe3ae3fa324d772d}},
	"world2/ecma-qos3":        {{527, 24462, 65026, 0xc2ed604f9f0253ed}, {90, 10230, 122688, 0xee6d4eb8f5c26bf8}, {38, 6228, 183007, 0xc2ed604f9f0253ed}},
}

// TestDVPin runs each distance-vector configuration over three generated
// internets through a cold start, the failure of a transit link, and that
// link's restoration, and holds every phase's message count, bytes,
// convergence time and forwarding outcomes to committed values. A change
// to either design's node shows here, link recovery included.
func TestDVPin(t *testing.T) {
	for w, wc := range dvPinWorlds {
		for _, c := range dvPinConfigs {
			name := fmt.Sprintf("world%d/%s", w, c.name)
			got := runDVPin(t, wc, c.build)
			if want, ok := dvPinWant[name]; !ok || got != want {
				t.Errorf("%s: got, as a dvPinWant row:\n%q: %s,\nwant %s", name, name, phases(got), phases(want))
			}
		}
	}
}

func runDVPin(t *testing.T, wc topology.Config, build func(*ad.Graph, *policy.DB) core.System) [3]dvPhase {
	t.Helper()
	g := topology.Generate(wc).Graph
	db := policy.Generate(g, policy.GenConfig{
		Seed: wc.Seed + 100, QOSClasses: 3, QOSCoverage: 0.5,
		DestRestrictionProb: 0.2, DestFraction: 0.7, MaxTermCost: 3,
	})
	link, ok := transitLink(g)
	if !ok {
		t.Fatalf("world %d has no link between two transit ADs", wc.Seed)
	}
	sys := build(g, db)
	stats := sys.Network().Stats
	var out [3]dvPhase
	for i, event := range []func() error{
		func() error { return nil },
		func() error { return sys.FailLink(link.A, link.B) },
		func() error { return sys.Network().RestoreLink(link.A, link.B) },
	} {
		msgs, bytes := stats.MessagesSent, stats.BytesSent
		if err := event(); err != nil {
			t.Fatal(err)
		}
		conv, ok := sys.Converge(6000 * sim.Second)
		if !ok {
			t.Fatalf("%s: phase %d did not converge", sys.Name(), i)
		}
		out[i] = dvPhase{stats.MessagesSent - msgs, stats.BytesSent - bytes, conv, forwardingHash(sys, g)}
	}
	return out
}

// transitLink returns the first link, in the graph's order, whose two ends
// both carry transit.
func transitLink(g *ad.Graph) (ad.Link, bool) {
	transit := func(id ad.ID) bool {
		info, _ := g.AD(id)
		return info.Class == ad.Transit || info.Class == ad.Hybrid
	}
	for _, l := range g.Links() {
		if transit(l.A) && transit(l.B) {
			return l, true
		}
	}
	return ad.Link{}, false
}

// phases renders ps as dvPinWant writes them.
func phases(ps [3]dvPhase) string {
	s := "{"
	for i, p := range ps {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("{%d, %d, %d, %#x}", p.Msgs, p.Bytes, p.Conv, p.Paths)
	}
	return s + "}"
}

// forwardingHash hashes the outcome of every ordered pair of ADs in each of
// three QOS classes: the path, and whether it was delivered or looped.
func forwardingHash(sys core.System, g *ad.Graph) uint64 {
	h := fnv.New64a()
	ids := g.IDs()
	for q := policy.QOS(0); q < 3; q++ {
		for _, src := range ids {
			for _, dst := range ids {
				if src == dst {
					continue
				}
				out := sys.Route(policy.Request{Src: src, Dst: dst, QOS: q})
				fmt.Fprintf(h, "%v %v %v;", out.Path, out.Delivered, out.Looped)
			}
		}
	}
	return h.Sum64()
}

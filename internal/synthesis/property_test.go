package synthesis

import (
	"math/rand"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/topology"
)

// randomScenario builds a random internet and policy set for property
// checks.
func randomScenario(seed int64) (*ad.Graph, *policy.DB) {
	rng := rand.New(rand.NewSource(seed))
	topo := topology.Generate(topology.Config{
		Seed:                 seed,
		Backbones:            1 + rng.Intn(3),
		RegionalsPerBackbone: 1 + rng.Intn(3),
		CampusesPerParent:    1 + rng.Intn(3),
		LateralProb:          rng.Float64() * 0.5,
		BypassProb:           rng.Float64() * 0.3,
		MultihomedProb:       rng.Float64() * 0.3,
		HybridProb:           rng.Float64() * 0.4,
	})
	db := policy.Generate(topo.Graph, policy.GenConfig{
		Seed:                  seed + 1,
		SourceRestrictionProb: rng.Float64(),
		SourceFraction:        0.3 + rng.Float64()*0.5,
		DestRestrictionProb:   rng.Float64() * 0.5,
		QOSClasses:            1 + rng.Intn(4),
		UCIClasses:            1 + rng.Intn(3),
		TimeWindowProb:        rng.Float64() * 0.5,
		TermsPerTransit:       1 + rng.Intn(3),
		MaxTermCost:           1 + rng.Intn(5),
		AvoidProb:             rng.Float64() * 0.5,
	})
	return topo.Graph, db
}

// TestPropertyFindRouteSoundAndComplete: across many random internets,
// FindRoute must (a) return only legal paths, (b) agree with exhaustive
// enumeration about existence, and (c) return the minimum policy cost.
func TestPropertyFindRouteSoundAndComplete(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g, db := randomScenario(seed * 17)
		ids := g.IDs()
		rng := rand.New(rand.NewSource(seed))
		// Sample random request classes, not just defaults.
		for trial := 0; trial < 30; trial++ {
			req := policy.Request{
				Src:  ids[rng.Intn(len(ids))],
				Dst:  ids[rng.Intn(len(ids))],
				QOS:  policy.QOS(rng.Intn(4)),
				UCI:  policy.UCI(rng.Intn(3)),
				Hour: uint8(rng.Intn(24)),
			}
			if req.Src == req.Dst {
				continue
			}
			res := Compile(g, db).FindRoute(req)
			paths := EnumeratePaths(g, db, req, EnumerateConfig{})
			if res.Found != (len(paths) > 0) {
				t.Fatalf("seed %d %v: found=%v but oracle has %d paths",
					seed, req, res.Found, len(paths))
			}
			if !res.Found {
				continue
			}
			if !db.PathLegal(res.Path, req) {
				t.Fatalf("seed %d %v: illegal path %v", seed, req, res.Path)
			}
			if !res.Path.Valid(g) {
				t.Fatalf("seed %d %v: physically invalid path %v", seed, req, res.Path)
			}
			best := ^uint32(0)
			for _, p := range paths {
				if c, ok := db.PathCost(g, p, req); ok && c < best {
					best = c
				}
			}
			if res.Cost != best {
				t.Fatalf("seed %d %v: cost %d, oracle best %d", seed, req, res.Cost, best)
			}
		}
	}
}

// TestPropertyEnumerationLegality: every enumerated path must be legal and
// loop-free, and enumeration must contain no duplicates.
func TestPropertyEnumerationLegality(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g, db := randomScenario(seed*31 + 5)
		ids := g.IDs()
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 10; trial++ {
			req := policy.Request{Src: ids[rng.Intn(len(ids))], Dst: ids[rng.Intn(len(ids))]}
			if req.Src == req.Dst {
				continue
			}
			paths := EnumeratePaths(g, db, req, EnumerateConfig{MaxPaths: 200})
			seen := map[string]bool{}
			for _, p := range paths {
				if !p.LoopFree() {
					t.Fatalf("seed %d: loop in %v", seed, p)
				}
				if !db.PathLegal(p, req) {
					t.Fatalf("seed %d: illegal %v", seed, p)
				}
				key := p.String()
				if seen[key] {
					t.Fatalf("seed %d: duplicate %v", seed, p)
				}
				seen[key] = true
			}
		}
	}
}

// TestPropertyContinuationConsistency: a FindRouteFrom continuation from
// the second hop of a full route must itself be legal and reach the
// destination at no greater cost than the suffix implies.
func TestPropertyContinuationConsistency(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g, db := randomScenario(seed*13 + 3)
		ids := g.IDs()
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 20; trial++ {
			req := policy.Request{Src: ids[rng.Intn(len(ids))], Dst: ids[rng.Intn(len(ids))]}
			if req.Src == req.Dst {
				continue
			}
			res := Compile(g, db).FindRoute(req)
			if !res.Found || len(res.Path) < 3 {
				continue
			}
			// Continue from the first transit hop.
			cont := Compile(g, db).FindRouteFrom(req, res.Path[1], res.Path[0])
			if !cont.Found {
				t.Fatalf("seed %d %v: continuation from %v not found though full path %v exists",
					seed, req, res.Path[1], res.Path)
			}
			if cont.Path.Source() != res.Path[1] || cont.Path.Dest() != req.Dst {
				t.Fatalf("seed %d: continuation endpoints wrong: %v", seed, cont.Path)
			}
		}
	}
}

// TestPropertyKShortestOrdered: KShortest output is sorted by policy cost
// and each entry is legal.
func TestPropertyKShortestOrdered(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, db := randomScenario(seed*7 + 11)
		ids := g.IDs()
		req := policy.Request{Src: ids[0], Dst: ids[len(ids)-1]}
		paths := KShortest(g, db, req, 8, 0)
		var prev uint32
		for i, p := range paths {
			c, ok := db.PathCost(g, p, req)
			if !ok {
				t.Fatalf("seed %d: illegal k-shortest path %v", seed, p)
			}
			if i > 0 && c < prev {
				t.Fatalf("seed %d: k-shortest out of order: %d after %d", seed, c, prev)
			}
			prev = c
		}
	}
}

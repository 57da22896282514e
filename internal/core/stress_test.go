package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/idrp"
	"repro/internal/protocols/lshh"
	"repro/internal/protocols/orwg"
	"repro/internal/protocols/plaindv"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestStressRandomFailures subjects every policy-aware architecture to a
// random sequence of link failures and restorations, reconverging after
// each event and asserting the steady-state invariants the paper demands:
// no forwarding loops, and no deliveries that violate any AD's policy.
func TestStressRandomFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("long stress test")
	}
	topoCfg := topology.Config{
		Seed: 77, Backbones: 2, RegionalsPerBackbone: 3,
		CampusesPerParent: 2, LateralProb: 0.3, BypassProb: 0.15, MultihomedProb: 0.2,
	}
	makers := []struct {
		name  string
		build func(g *ad.Graph, db *policy.DB) core.System
		// strictLegal architectures must never deliver illegally.
		strictLegal bool
	}{
		{"ecma", func(g *ad.Graph, db *policy.DB) core.System {
			return ecma.New(g, db, ecma.Config{})
		}, false},
		{"idrp", func(g *ad.Graph, db *policy.DB) core.System {
			return idrp.New(g, db, idrp.Config{})
		}, true},
		{"lshh", func(g *ad.Graph, db *policy.DB) core.System {
			return lshh.New(g, db, lshh.Config{})
		}, true},
		{"orwg", func(g *ad.Graph, db *policy.DB) core.System {
			return orwg.New(g, db, orwg.Config{})
		}, true},
	}
	for _, m := range makers {
		m := m
		t.Run(m.name, func(t *testing.T) {
			topo := topology.Generate(topoCfg)
			g := topo.Graph
			db := policy.Generate(g, policy.GenConfig{
				Seed: 78, SourceRestrictionProb: 0.5, SourceFraction: 0.5,
			})
			oracle := core.Oracle{G: g, DB: db}
			reqs := core.AllPairsRequests(g, true, 0, 0)
			sys := m.build(g, db)
			if _, ok := sys.Converge(600 * sim.Second); !ok {
				t.Fatal("initial convergence failed")
			}

			rng := rand.New(rand.NewSource(79))
			links := g.Links()
			down := map[[2]ad.ID]bool{}
			for round := 0; round < 8; round++ {
				// Toggle a random link, keeping at most 2 down so
				// the internet stays mostly connected.
				l := links[rng.Intn(len(links))]
				key := [2]ad.ID{l.A, l.B}
				if down[key] {
					if err := sys.Network().RestoreLink(l.A, l.B); err != nil {
						t.Fatal(err)
					}
					delete(down, key)
				} else if len(down) < 2 {
					if err := sys.FailLink(l.A, l.B); err != nil {
						t.Fatal(err)
					}
					down[key] = true
				}
				if _, ok := sys.Converge(6000 * sim.Second); !ok {
					t.Fatalf("round %d: did not reconverge", round)
				}
				for _, req := range reqs[:len(reqs)/2] {
					out := sys.Route(req)
					if out.Looped {
						t.Fatalf("round %d: %v looped: %v", round, req, out.Path)
					}
					if m.strictLegal && out.Delivered && !oracle.Legal(out.Path, req) {
						t.Fatalf("round %d: %v delivered illegally: %v", round, req, out.Path)
					}
				}
			}
		})
	}
}

// TestStressPlainDVAlwaysConverges checks the baseline terminates (at its
// infinity bound) under repeated partitioning failures.
func TestStressPlainDVAlwaysConverges(t *testing.T) {
	topo := topology.Generate(topology.Config{Seed: 80, LateralProb: 0.2})
	sys := plaindv.New(topo.Graph, plaindv.Config{SplitHorizon: false})
	if _, ok := sys.Converge(600 * sim.Second); !ok {
		t.Fatal("initial convergence failed")
	}
	rng := rand.New(rand.NewSource(81))
	links := topo.Graph.Links()
	for round := 0; round < 5; round++ {
		l := links[rng.Intn(len(links))]
		_ = sys.FailLink(l.A, l.B)
		if _, ok := sys.Converge(60000 * sim.Second); !ok {
			t.Fatalf("round %d: count-to-infinity did not terminate", round)
		}
		_ = sys.Network().RestoreLink(l.A, l.B)
		if _, ok := sys.Converge(60000 * sim.Second); !ok {
			t.Fatalf("round %d: recovery did not converge", round)
		}
	}
}

// TestCrossProtocolConsistency: on an open-policy internet every
// policy-aware protocol must agree with the oracle about reachability.
func TestCrossProtocolConsistency(t *testing.T) {
	topo := topology.Generate(topology.Config{Seed: 82, LateralProb: 0.25, BypassProb: 0.1})
	g := topo.Graph
	db := policy.OpenDB(g)
	oracle := core.Oracle{G: g, DB: db}
	reqs := core.AllPairsRequests(g, true, 0, 0)
	systems := []core.System{
		ecma.New(g, db, ecma.Config{}),
		idrp.New(g, db, idrp.Config{}),
		lshh.New(g, db, lshh.Config{}),
		orwg.New(g, db, orwg.Config{}),
	}
	for _, sys := range systems {
		sys.Converge(600 * sim.Second)
		for _, req := range reqs {
			want := oracle.HasRoute(req)
			out := sys.Route(req)
			if out.Delivered != want {
				t.Errorf("%s: %v delivered=%v oracle=%v", sys.Name(), req, out.Delivered, want)
			}
		}
	}
}

package core_test

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/egp"
	"repro/internal/protocols/filters"
	"repro/internal/protocols/idrp"
	"repro/internal/protocols/lshh"
	"repro/internal/protocols/orwg"
	"repro/internal/protocols/plaindv"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestConformanceAllProtocols runs the shared conformance suite over every
// architecture at its capability level (the design space's own taxonomy:
// policy-blind baselines, partially-capable designs, and the fully
// source-specific ones).
func TestConformanceAllProtocols(t *testing.T) {
	runConformance(t, "plain-dv", func(g *ad.Graph, db *policy.DB) core.System {
		return plaindv.New(g, plaindv.Config{SplitHorizon: true, Seed: 1})
	}, conformanceConfig{Seed: 100, SupportsFailure: true})

	runConformance(t, "egp", func(g *ad.Graph, db *policy.DB) core.System {
		return egp.New(g, egp.Config{Seed: 1})
	}, conformanceConfig{Seed: 200})

	runConformance(t, "filters", func(g *ad.Graph, db *policy.DB) core.System {
		return filters.New(g, db, filters.Config{Seed: 1, MaxCandidates: 6})
	}, conformanceConfig{Seed: 300})

	runConformance(t, "ecma", func(g *ad.Graph, db *policy.DB) core.System {
		return ecma.New(g, db, ecma.Config{Seed: 1})
	}, conformanceConfig{Seed: 400, PolicyAware: true, SupportsFailure: true})

	runConformance(t, "idrp", func(g *ad.Graph, db *policy.DB) core.System {
		return idrp.New(g, db, idrp.Config{Seed: 1})
	}, conformanceConfig{Seed: 500, PolicyAware: true, SourceSpecific: true, SupportsFailure: true})

	runConformance(t, "bgp", func(g *ad.Graph, db *policy.DB) core.System {
		return idrp.New(g, db, idrp.Config{Seed: 1, BGPMode: true})
	}, conformanceConfig{Seed: 600, PolicyAware: true, SupportsFailure: true})

	runConformance(t, "lshh", func(g *ad.Graph, db *policy.DB) core.System {
		return lshh.New(g, db, lshh.Config{Seed: 1})
	}, conformanceConfig{Seed: 700, PolicyAware: true, SourceSpecific: true, SupportsFailure: true})

	runConformance(t, "orwg", func(g *ad.Graph, db *policy.DB) core.System {
		return orwg.New(g, db, orwg.Config{Seed: 1})
	}, conformanceConfig{Seed: 800, PolicyAware: true, SourceSpecific: true, SupportsFailure: true})
}

// systemBuilder constructs a protocol instance over a topology and policy
// database; conformance runs use it to create fresh systems per check.
type systemBuilder func(g *ad.Graph, db *policy.DB) core.System

// conformanceConfig tunes the suite.
type conformanceConfig struct {
	// PolicyAware systems must never deliver over an illegal path and
	// must reach oracle availability 1.0 under open policies.
	PolicyAware bool
	// SourceSpecific systems additionally honour source-restricted terms
	// (either by detouring or by dropping — never by violating).
	SourceSpecific bool
	// SupportsFailure runs the failure/recovery checks (requires
	// FailLink support).
	SupportsFailure bool
	// Seed drives the generated internets.
	Seed int64
}

// runConformance exercises a routing architecture against the invariants
// every design point of the paper must satisfy at its level of capability:
// convergence to quiescence, loop-free steady-state forwarding, determinism,
// oracle agreement under open policies, and policy compliance per the
// configured capability level.
func runConformance(t *testing.T, name string, build systemBuilder, cfg conformanceConfig) {
	t.Helper()
	limit := 600 * sim.Second

	t.Run(name+"/converges", func(t *testing.T) {
		topo := topology.Generate(topology.Config{Seed: cfg.Seed, LateralProb: 0.25, BypassProb: 0.1})
		sys := build(topo.Graph, policy.OpenDB(topo.Graph))
		if _, ok := sys.Converge(limit); !ok {
			t.Fatal("did not reach quiescence")
		}
	})

	t.Run(name+"/loop-free", func(t *testing.T) {
		topo := topology.Generate(topology.Config{Seed: cfg.Seed + 1, LateralProb: 0.4, BypassProb: 0.2})
		db := policy.OpenDB(topo.Graph)
		sys := build(topo.Graph, db)
		sys.Converge(limit)
		for _, req := range core.AllPairsRequests(topo.Graph, false, 0, 0) {
			if out := sys.Route(req); out.Looped {
				t.Fatalf("%v looped: %v", req, out.Path)
			}
		}
	})

	t.Run(name+"/deterministic", func(t *testing.T) {
		run := func() (uint64, int) {
			topo := topology.Generate(topology.Config{Seed: cfg.Seed + 2, LateralProb: 0.3})
			db := policy.OpenDB(topo.Graph)
			sys := build(topo.Graph, db)
			sys.Converge(limit)
			delivered := 0
			for _, req := range core.AllPairsRequests(topo.Graph, true, 0, 0) {
				if sys.Route(req).Delivered {
					delivered++
				}
			}
			return sys.Network().Stats.MessagesSent, delivered
		}
		m1, d1 := run()
		m2, d2 := run()
		if m1 != m2 || d1 != d2 {
			t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", m1, d1, m2, d2)
		}
	})

	if cfg.PolicyAware {
		t.Run(name+"/open-policy-availability", func(t *testing.T) {
			topo := topology.Generate(topology.Config{Seed: cfg.Seed + 3, LateralProb: 0.25})
			db := policy.OpenDB(topo.Graph)
			oracle := core.Oracle{G: topo.Graph, DB: db}
			sys := build(topo.Graph, db)
			m := core.RunScenario(sys, oracle, core.AllPairsRequests(topo.Graph, true, 0, 0), limit)
			if m.Availability() < 1 {
				t.Fatalf("availability %.3f under open policy", m.Availability())
			}
			if m.DeliveredIllegal != 0 {
				t.Fatalf("%d illegal deliveries under open policy", m.DeliveredIllegal)
			}
		})
	}

	if cfg.SourceSpecific {
		t.Run(name+"/source-policy-compliance", func(t *testing.T) {
			topo := topology.Generate(topology.Config{Seed: cfg.Seed + 4, LateralProb: 0.3})
			db := policy.Generate(topo.Graph, policy.GenConfig{
				Seed: cfg.Seed + 5, SourceRestrictionProb: 0.7, SourceFraction: 0.4,
			})
			oracle := core.Oracle{G: topo.Graph, DB: db}
			sys := build(topo.Graph, db)
			m := core.RunScenario(sys, oracle, core.AllPairsRequests(topo.Graph, true, 0, 0), limit)
			if m.DeliveredIllegal != 0 {
				t.Fatalf("%d deliveries violated source-specific terms", m.DeliveredIllegal)
			}
		})
	}

	if cfg.SupportsFailure {
		t.Run(name+"/failure-recovery", func(t *testing.T) {
			topo := topology.Generate(topology.Config{Seed: cfg.Seed + 6, LateralProb: 0.35, BypassProb: 0.15})
			g := topo.Graph
			db := policy.OpenDB(g)
			sys := build(g, db)
			f, ok := sys.(interface{ FailLink(a, b ad.ID) error })
			if !ok {
				t.Skip("system does not expose FailLink")
			}
			sys.Converge(limit)
			// Fail a redundant link; the system must reconverge and
			// keep every still-connected pair loop-free.
			var victim ad.Link
			for _, l := range g.Links() {
				trial := g.Clone()
				trial.RemoveLink(l.A, l.B)
				if trial.Connected() {
					victim = l
					break
				}
			}
			if err := f.FailLink(victim.A, victim.B); err != nil {
				t.Fatal(err)
			}
			if _, ok := sys.Converge(10 * limit); !ok {
				t.Fatal("did not reconverge after failure")
			}
			for _, req := range core.AllPairsRequests(g, true, 0, 0) {
				if out := sys.Route(req); out.Looped {
					t.Fatalf("%v looped after failure: %v", req, out.Path)
				}
			}
		})
	}
}

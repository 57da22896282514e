// Convergence: reproduce the dynamics story of §4.3/§5.1.1 on a small
// internet. A link failure severs a stub; the example prints, for each
// architecture, the messages and simulated time needed to reconverge —
// showing plain DV's count-to-infinity, the ECMA partial ordering's
// suppression of it, and link-state flooding's fast reconvergence.
package main

import (
	"fmt"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/protocols"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/plaindv"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	build := func() (*ad.Graph, *policy.DB, ad.Link) {
		topo := topology.Generate(topology.Config{
			Seed: 7, Backbones: 2, RegionalsPerBackbone: 2,
			CampusesPerParent: 2, LateralProb: 0.3,
		})
		g := topo.Graph
		return g, policy.OpenDB(g), g.StubUplink()
	}

	type mk struct {
		name  string
		build func(g *ad.Graph, db *policy.DB) core.System
	}
	makers := []mk{
		{"plain-dv (split horizon)", protocols.Lookup("plain-dv").New},
		{"plain-dv (no split horizon)", func(g *ad.Graph, db *policy.DB) core.System {
			return plaindv.New(g, plaindv.Config{SplitHorizon: false})
		}},
		{"ecma (partial ordering)", protocols.Lookup("ecma").New},
		{"ecma (ordering disabled)", func(g *ad.Graph, db *policy.DB) core.System {
			return ecma.New(g, db, ecma.Config{DisableOrdering: true})
		}},
		{"ls-hop-by-hop", protocols.Lookup("lshh").New},
		{"orwg", protocols.Lookup("orwg").New},
	}

	fmt.Printf("%-28s %10s %14s %12s %16s\n", "protocol", "init-msgs", "init-time", "fail-msgs", "reconverge-time")
	for _, m := range makers {
		g, db, victim := build()
		sys := m.build(g, db)
		conv0, _ := sys.Converge(600 * sim.Second)
		msgs0 := sys.Network().Stats.MessagesSent

		tFail := sys.Network().Now()
		_ = sys.FailLink(victim.A, victim.B)
		conv1, _ := sys.Converge(6000 * sim.Second)
		msgs1 := sys.Network().Stats.MessagesSent
		recon := sim.Time(0)
		if conv1 > tFail {
			recon = conv1 - tFail
		}
		fmt.Printf("%-28s %10d %14v %12d %16v\n", m.name, msgs0, conv0, msgs1-msgs0, recon)
	}
}

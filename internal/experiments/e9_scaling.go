package experiments

import (
	"fmt"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/idrp"
	"repro/internal/protocols/lshh"
	"repro/internal/protocols/orwg"
	"repro/internal/protocols/plaindv"
	"repro/internal/sim"
	"repro/internal/topology"
)

// E9MessageScaling sweeps internet size and measures the protocol traffic
// required to reach initial convergence — the scaling dimension of §2.2.
// Link-state flooding costs O(N·E) message copies; distance-vector costs
// grow with table size times churn; path-vector updates additionally carry
// full AD paths and policy attributes (larger bytes per message).
//
// Every (size, protocol) run is independent and runs on every core.
func E9MessageScaling(seed int64) *metrics.Table {
	return e9Rows(seed).run(0)
}

// e9Rows makes one task per (size, protocol) pair, the largest internet
// first so that the longest runs start earliest. Each task converges its
// protocol on its own clone of the size's graph; the policy database is
// shared read-only.
func e9Rows(seed int64) rows {
	sizes := []topology.Config{
		{Seed: seed, Backbones: 1, RegionalsPerBackbone: 2, CampusesPerParent: 2, LateralProb: 0.15},
		{Seed: seed, Backbones: 2, RegionalsPerBackbone: 3, CampusesPerParent: 3, LateralProb: 0.15, BypassProb: 0.1},
		{Seed: seed, Backbones: 3, RegionalsPerBackbone: 4, CampusesPerParent: 4, LateralProb: 0.1, BypassProb: 0.05},
		{Seed: seed, Backbones: 4, RegionalsPerBackbone: 4, MetrosPerRegional: 2, CampusesPerParent: 3, LateralProb: 0.05, BypassProb: 0.05},
	}
	type outcome struct {
		name            string
		messages, bytes uint64
		conv            sim.Time
	}
	graphs := make([]*ad.Graph, len(sizes))
	runs := make([][5]outcome, len(sizes))
	var tasks []func()
	for i := len(sizes) - 1; i >= 0; i-- {
		g := topology.Generate(sizes[i]).Graph
		db := policy.Generate(g, policy.GenConfig{Seed: seed + 1, SourceRestrictionProb: 0.3, SourceFraction: 0.5})
		graphs[i] = g
		systems := [5]func() core.System{
			func() core.System { return plaindv.New(g.Clone(), plaindv.Config{SplitHorizon: true, Seed: seed}) },
			func() core.System { return ecma.New(g.Clone(), db, ecma.Config{Seed: seed}) },
			func() core.System { return idrp.New(g.Clone(), db, idrp.Config{Seed: seed}) },
			func() core.System { return lshh.New(g.Clone(), db, lshh.Config{Seed: seed}) },
			func() core.System { return orwg.New(g.Clone(), db, orwg.Config{Seed: seed}) },
		}
		for j, mk := range systems {
			tasks = append(tasks, func() {
				sys := mk()
				conv, _ := sys.Converge(convergenceLimit)
				st := sys.Network().Stats
				runs[i][j] = outcome{sys.Name(), st.MessagesSent, st.BytesSent, conv}
			})
		}
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E9 — convergence traffic vs internet size",
			"ADs", "links", "protocol", "messages", "bytes", "conv-time")
		for i, g := range graphs {
			for _, r := range runs[i] {
				t.AddRow(fmt.Sprintf("%d", g.NumADs()), g.NumLinks(), r.name,
					r.messages, r.bytes, r.conv.String())
			}
		}
		t.AddNote("initial convergence from cold start; traffic measured on marshalled wire bytes")
		return t
	}}
}

package experiments

import (
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
)

// E2Convergence measures reconvergence after a link failure: simulated time
// and protocol messages until quiescence. The paper's claims (§4.3,
// §5.1.1): plain distance vector converges slowly (count-to-infinity
// without split horizon), the ECMA partial ordering suppresses the bounce
// and converges rapidly, link-state flooding reconverges in a flood's time.
//
// Every protocol's run is independent and runs on every core.
func E2Convergence(seed int64) *metrics.Table {
	return e2Rows(seed).run(0)
}

// e2Rows makes one task per protocol maker, plain DV without split horizon
// (it counts to infinity) and IDRP, the two longest runs, first. Each task
// builds its own internet, so nothing is shared.
func e2Rows(seed int64) rows {
	type mk struct {
		name  string
		build func(g *ad.Graph, db *policy.DB) core.System
	}
	makers := []mk{
		{"plain-dv(split-horizon)", func(g *ad.Graph, db *policy.DB) core.System {
			return plaindv.New(g, plaindv.Config{SplitHorizon: true, Seed: seed})
		}},
		{"plain-dv(no-split)", func(g *ad.Graph, db *policy.DB) core.System {
			return plaindv.New(g, plaindv.Config{SplitHorizon: false, Seed: seed})
		}},
		{"ecma", func(g *ad.Graph, db *policy.DB) core.System {
			return ecma.New(g, db, ecma.Config{Seed: seed})
		}},
		{"ecma(no-ordering)", func(g *ad.Graph, db *policy.DB) core.System {
			return ecma.New(g, db, ecma.Config{Seed: seed, DisableOrdering: true})
		}},
		{"idrp", func(g *ad.Graph, db *policy.DB) core.System {
			return idrp.New(g, db, idrp.Config{Seed: seed})
		}},
		{"ls-hop-by-hop", func(g *ad.Graph, db *policy.DB) core.System {
			return lshh.New(g, db, lshh.Config{Seed: seed})
		}},
		{"orwg", func(g *ad.Graph, db *policy.DB) core.System {
			return orwg.New(g, db, orwg.Config{Seed: seed})
		}},
	}

	cells := make([][]any, len(makers))
	var tasks []func()
	for _, i := range []int{1, 4, 0, 2, 3, 5, 6} {
		m := makers[i]
		tasks = append(tasks, func() {
			topo := defaultTopology(seed)
			g := topo.Graph
			db := policy.OpenDB(g)
			sys := m.build(g, db)

			conv0, _ := sys.Converge(convergenceLimit)
			msgs0 := sys.Network().Stats.MessagesSent

			// Fail a stub's only uplink: the destination becomes
			// unreachable, the worst case for DV withdrawal dynamics.
			victim := singleHomedStubLink(g)
			tFail := sys.Network().Now()
			if f, ok := sys.(failer); ok {
				_ = f.FailLink(victim.A, victim.B)
			}
			conv1, quiesced := sys.Converge(10 * convergenceLimit)
			msgs1 := sys.Network().Stats.MessagesSent

			failConv := sim.Time(0)
			if conv1 > tFail {
				failConv = conv1 - tFail
			}
			cells[i] = []any{m.name, msgs0, conv0.String(), msgs1 - msgs0, failConv.String(), quiesced}
		})
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E2 — reconvergence after link failure",
			"protocol", "initial-msgs", "initial-conv", "failure-msgs", "failure-conv", "quiesced")
		for _, c := range cells {
			t.AddRow(c...)
		}
		t.AddNote("failure severs a single-homed stub (destination becomes unreachable)")
		t.AddNote("no-split plain DV counts to infinity; the ECMA ordering suppresses the bounce")
		return t
	}}
}

// singleHomedStubLink returns the uplink of the first degree-1 stub, or the
// first link if none exists.
func singleHomedStubLink(g *ad.Graph) ad.Link {
	for _, info := range g.ADs() {
		if info.Class == ad.Stub && g.Degree(info.ID) == 1 {
			return g.IncidentLinks(info.ID)[0]
		}
	}
	return g.Links()[0]
}

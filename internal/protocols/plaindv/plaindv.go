// Package plaindv implements a traditional Bellman-Ford distance-vector
// routing protocol (RIP-like) with no policy support. It is the convergence
// baseline of experiment E2: with split horizon disabled it exhibits the
// count-to-infinity behaviour the paper attributes to "other DV algorithms"
// (§5.1.1), and it freely violates transit policy because it cannot see it
// (§3).
package plaindv

import (
	"repro/internal/ad"
	"repro/internal/dvcore"
	"repro/internal/wire"
)

// infinity is the unreachable metric, classic RIP's 16.
const infinity = 16

// Config parameterizes the protocol.
type Config struct {
	// SplitHorizon suppresses advertising a route back to the neighbor
	// it was learned from.
	SplitHorizon bool
}

// System is a plain-DV deployment over a topology: the shared
// distance-vector node with one QOS class, exporting every route.
type System = dvcore.System

// New builds the system over g. The policy database is deliberately ignored:
// plain DV has no way to express it.
func New(g *ad.Graph, cfg Config) *System {
	export := exportAll
	if cfg.SplitHorizon {
		export = splitHorizon
	}
	return dvcore.NewSystem(g, dvcore.Design{Name: "plain-dv", Infinity: infinity, Classes: 1, Export: export})
}

// exportAll advertises every route to every neighbour.
func exportAll(_, _ ad.ID, e dvcore.Entry) (wire.DVRoute, bool) {
	return wire.DVRoute{Dest: e.Key.Dest, Metric: e.Metric}, true
}

// splitHorizon advertises every route but to the neighbour it was learned
// from.
func splitHorizon(self, nb ad.ID, e dvcore.Entry) (wire.DVRoute, bool) {
	rt, _ := exportAll(self, nb, e)
	return rt, e.NextHop != nb
}

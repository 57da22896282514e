// Package ecma implements the NIST/ECMA inter-domain routing proposal as
// described in Breslau & Estrin (SIGCOMM 1990) §5.1.1: hop-by-hop
// distance-vector routing with policy expressed in the topology through a
// global partial ordering of ADs.
//
// Every link is labelled up or down by the partial ordering. Routing
// updates are marked when they traverse a down link; a marked update is
// never sent up again, which prevents loops and count-to-infinity without
// path information. Per-QOS forwarding information bases are maintained: a
// transit AD re-advertises a destination for a QOS class only if one of its
// policy terms offers that class, and destination-specific export filters
// derive from the terms' destination sets.
//
// What the design cannot express — source-specific policy beyond the
// ordering — is exactly what experiments E1/T1 measure: ECMA delivers
// traffic through ADs whose terms exclude the source (counted as illegal
// deliveries) or fails to find legal detours.
package ecma

import (
	"repro/internal/ad"
	"repro/internal/dvcore"
	"repro/internal/ordering"
	"repro/internal/policy"
	"repro/internal/wire"
)

// Config parameterizes the protocol.
type Config struct {
	// QOSClasses is the number of per-QOS FIBs each AD maintains.
	QOSClasses int
	// DisableOrdering turns off the up/down rule (ablation): the
	// protocol degenerates into multi-FIB plain DV and may loop or count
	// to infinity.
	DisableOrdering bool
}

// Normalize fills defaults.
func (c Config) Normalize() Config {
	if c.QOSClasses < 1 {
		c.QOSClasses = 1
	}
	if c.QOSClasses > policy.MaxClasses {
		c.QOSClasses = policy.MaxClasses
	}
	return c
}

// infinity is the unreachable metric.
const infinity = 64

// System is an ECMA deployment: the shared distance-vector node with
// per-QOS tables, exporting under the partial ordering and the transit
// terms.
type System = dvcore.System

// New builds the system over g with policy db. The partial ordering is
// derived from the topology hierarchy (the ordering a central authority
// would compute); pass a custom ordering with NewWithOrdering for
// satisfiability experiments.
func New(g *ad.Graph, db *policy.DB, cfg Config) *System {
	return NewWithOrdering(g, db, ordering.FromLevels(g), cfg)
}

// NewWithOrdering builds the system with an explicit partial ordering.
func NewWithOrdering(g *ad.Graph, db *policy.DB, order ordering.Ordering, cfg Config) *System {
	cfg = cfg.Normalize()
	ids := g.IDs()
	r := &rule{ids: ids, transit: make([]policy.Transit, len(ids)), order: order, ordered: !cfg.DisableOrdering}
	for p, id := range ids {
		r.transit[p] = db.TransitOf(id, cfg.QOSClasses)
	}
	return dvcore.NewSystem(g, dvcore.Design{Name: "ecma", Infinity: infinity, Classes: cfg.QOSClasses, Export: r.export})
}

// rule is ECMA's export rule over a system's ADs.
type rule struct {
	ids []ad.ID
	// transit is what each AD's policy terms offer, by the AD's position
	// in ids: the QOS classes and costs of re-advertised routes, and in
	// Dests the destinations they may be exported for
	// (destination-specific policies, paper §5.1).
	transit []policy.Transit
	order   ordering.Ordering
	// ordered applies the up/down rule; DisableOrdering clears it.
	ordered bool
}

// export builds the route self advertises to nb for e, applying the
// transit QOS and destination filters, the transit cost, and the up/down
// rule.
func (r *rule) export(self, nb ad.ID, e dvcore.Entry) (wire.DVRoute, bool) {
	k := e.Key
	rt := wire.DVRoute{Dest: k.Dest, Metric: e.Metric, QOS: k.QOS, Flags: e.Flags}
	if k.Dest != self {
		// Only transit-capable ADs re-advertise third-party routes:
		// stubs and multihomed stubs have no terms, so they never do
		// (information hiding + no-transit, §5.1).
		t := &r.transit[ad.Position(r.ids, self)]
		if !t.OK[int(k.QOS)] || !t.Dests.Contains(k.Dest) {
			return wire.DVRoute{}, false
		}
		rt.Metric += t.Cost[int(k.QOS)]
	}
	if r.ordered {
		// The up/down rule: an update that has traversed a down link
		// may not travel up again. The sender marks the hop it sends
		// down.
		switch r.order.Direction(self, nb) {
		case ordering.Up:
			if e.Flags&wire.FlagTraversedDown != 0 {
				return wire.DVRoute{}, false
			}
		case ordering.Down:
			rt.Flags |= wire.FlagTraversedDown
		}
	}
	return rt, true
}

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
	"repro/internal/core"
	"repro/internal/dvcore"
	"repro/internal/ordering"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config parameterizes the protocol.
type Config struct {
	// Seed fixes the network RNG.
	Seed int64
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

const flushDelay = sim.Millisecond

// infinity is the unreachable metric.
const infinity = 64

// System is an ECMA deployment.
type System struct {
	cfg   Config
	nw    *sim.Network
	order ordering.Ordering
	nodes map[ad.ID]*node

	computations int
	// rx is the update Receive decodes into and tx the one flush builds,
	// each reused message to message: routes are values, and nothing
	// keeps a slice of either.
	rx, tx wire.DVUpdate
}

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
	s := &System{
		cfg:   cfg,
		nw:    sim.NewNetwork(g, cfg.Seed),
		order: order,
		nodes: make(map[ad.ID]*node),
	}
	for _, id := range g.IDs() {
		n := &node{id: id, sys: s, table: dvcore.NewTable(), transit: db.TransitOf(id, cfg.QOSClasses)}
		s.nodes[id] = n
		s.nw.AddNode(n)
	}
	return s
}

// Name implements core.System.
func (s *System) Name() string { return "ecma" }

// Network implements core.System.
func (s *System) Network() *sim.Network { return s.nw }

// Converge implements core.System.
func (s *System) Converge(limit sim.Time) (sim.Time, bool) {
	return s.nw.RunToQuiescence(limit)
}

// Route implements core.System: per-QOS hop-by-hop forwarding.
func (s *System) Route(req policy.Request) core.Outcome {
	qos := req.QOS
	if int(qos) >= s.cfg.QOSClasses {
		qos = 0
	}
	k := dvcore.Key{Dest: req.Dst, QOS: qos}
	return core.Forward(req.Src, req.Dst, func(cur, _ ad.ID) ad.ID {
		if n, ok := s.nodes[cur]; ok {
			return n.table.NextHop(k)
		}
		return ad.Invalid
	})
}

// StateEntries implements core.System.
func (s *System) StateEntries() int {
	total := 0
	for _, n := range s.nodes {
		total += n.table.Len()
	}
	return total
}

// Computations implements core.System.
func (s *System) Computations() int { return s.computations }

// Table exposes an AD's FIB for tests.
func (s *System) Table(id ad.ID) *dvcore.Table {
	if n, ok := s.nodes[id]; ok {
		return n.table
	}
	return nil
}

// FailLink injects a link failure.
func (s *System) FailLink(a, b ad.ID) error { return s.nw.FailLink(a, b) }

// Ordering exposes the partial ordering in use.
func (s *System) Ordering() ordering.Ordering { return s.order }

// node is one AD's ECMA process.
type node struct {
	id  ad.ID
	sys *System

	table *dvcore.Table

	// transit is what the local policy terms offer: the QOS classes and
	// costs of re-advertised routes, and in Dests the destinations they
	// may be exported for (destination-specific policies, paper §5.1).
	transit policy.Transit

	flushPending bool
}

func (n *node) ID() ad.ID { return n.id }

func (n *node) Start(nw *sim.Network) {
	// Originate the self route in every QOS class: any AD accepts
	// traffic destined to itself regardless of class.
	for q := 0; q < n.sys.cfg.QOSClasses; q++ {
		n.table.Set(dvcore.Entry{
			Key:     dvcore.Key{Dest: n.id, QOS: policy.QOS(q)},
			Metric:  0,
			NextHop: n.id,
		})
	}
	n.scheduleFlush(nw)
}

func (n *node) scheduleFlush(nw *sim.Network) {
	if n.flushPending {
		return
	}
	n.flushPending = true
	nw.After(flushDelay, func() {
		n.flushPending = false
		n.flush(nw, n.table.TakeDirty(), ad.Invalid)
	})
}

// advertisable builds the DVRoute n would send to nb for key k, applying
// the up/down rule, the transit QOS/destination filters, and the transit
// cost. ok=false means the route must not be advertised to nb.
func (n *node) advertisable(k dvcore.Key, nb ad.ID) (wire.DVRoute, bool) {
	e, have := n.table.Get(k)
	if !have || e.Metric >= infinity {
		// Withdrawals propagate regardless of policy filters so stale
		// routes die.
		return wire.DVRoute{Dest: k.Dest, Metric: infinity, QOS: k.QOS, Flags: wire.FlagWithdraw}, true
	}
	isSelf := k.Dest == n.id
	if !isSelf {
		// Only transit-capable ADs re-advertise third-party routes:
		// stubs and multihomed stubs have no terms, so they never do
		// (information hiding + no-transit, §5.1).
		if !n.transit.OK[int(k.QOS)] || !n.transit.Dests.Contains(k.Dest) {
			return wire.DVRoute{}, false
		}
	}
	flags := e.Flags
	if !n.sys.cfg.DisableOrdering {
		// The up/down rule: an update that has traversed a down link
		// may not travel up again. The receiver records the marking
		// for the hop itself.
		if flags&wire.FlagTraversedDown != 0 && n.sys.order.Direction(n.id, nb) == ordering.Up {
			return wire.DVRoute{}, false
		}
	}
	metric := e.Metric
	if !isSelf {
		metric += n.transit.Cost[int(k.QOS)]
	}
	return wire.DVRoute{Dest: k.Dest, Metric: metric, QOS: k.QOS, Flags: flags}, true
}

// flush advertises the given keys to every up neighbor (or only `only` when
// set), applying per-neighbor filtering.
func (n *node) flush(nw *sim.Network, keys []dvcore.Key, only ad.ID) {
	if len(keys) == 0 {
		return
	}
	for _, nb := range nw.UpNeighbors(n.id) {
		if only != ad.Invalid && nb != only {
			continue
		}
		upd := &n.sys.tx
		upd.Routes = upd.Routes[:0]
		for _, k := range keys {
			if rt, ok := n.advertisable(k, nb); ok {
				upd.Routes = append(upd.Routes, rt)
			}
		}
		if len(upd.Routes) > 0 {
			nw.SendMessage("ecma", n.id, nb, upd)
		}
	}
}

func (n *node) Receive(nw *sim.Network, from ad.ID, payload []byte) {
	upd := &n.sys.rx
	if wire.UnmarshalInto(payload, upd) != nil {
		return
	}
	if len(upd.Routes) == 0 {
		// Full-table solicitation after a topology change.
		var keys []dvcore.Key
		for _, e := range n.table.Entries() {
			keys = append(keys, e.Key)
		}
		n.flush(nw, keys, from)
		return
	}
	n.sys.computations++
	link, ok := nw.Graph.LinkBetween(n.id, from)
	if !ok {
		return
	}
	changed := false
	for _, rt := range upd.Routes {
		if rt.Dest == n.id || int(rt.QOS) >= n.sys.cfg.QOSClasses {
			continue
		}
		flags := rt.Flags &^ wire.FlagWithdraw
		if !n.sys.cfg.DisableOrdering {
			// Record the traversal direction of this hop
			// (from -> me) in the marking.
			if n.sys.order.Direction(from, n.id) == ordering.Down {
				flags |= wire.FlagTraversedDown
			}
		}
		metric := rt.Metric + link.Cost
		if rt.Flags&wire.FlagWithdraw != 0 {
			metric = infinity
		}
		changed = n.table.Learn(dvcore.Key{Dest: rt.Dest, QOS: rt.QOS}, metric, infinity, from, flags) || changed
	}
	if changed {
		n.scheduleFlush(nw)
	}
}

func (n *node) LinkDown(nw *sim.Network, nb ad.ID) {
	if n.table.Poison(nb, infinity) {
		n.scheduleFlush(nw)
		for _, other := range nw.UpNeighbors(n.id) {
			nw.SendMessage("ecma", n.id, other, &wire.DVUpdate{})
		}
	}
}

func (n *node) LinkUp(nw *sim.Network, nb ad.ID) {
	var keys []dvcore.Key
	for _, e := range n.table.Entries() {
		keys = append(keys, e.Key)
	}
	n.flush(nw, keys, nb)
	// Ask the recovered neighbor for its table too.
	nw.SendMessage("ecma", n.id, nb, &wire.DVUpdate{})
}

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
	// Infinity is the unreachable metric.
	Infinity uint32
}

// Normalize fills defaults.
func (c Config) Normalize() Config {
	if c.QOSClasses < 1 {
		c.QOSClasses = 1
	}
	if c.QOSClasses > policy.MaxClasses {
		c.QOSClasses = policy.MaxClasses
	}
	if c.Infinity == 0 {
		c.Infinity = 64
	}
	return c
}

const flushDelay = sim.Millisecond

// System is an ECMA deployment.
type System struct {
	cfg   Config
	nw    *sim.Network
	db    *policy.DB
	order ordering.Ordering
	nodes map[ad.ID]*node

	computations int
	started      bool
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
		db:    db,
		order: order,
		nodes: make(map[ad.ID]*node),
	}
	for _, info := range g.ADs() {
		n := &node{id: info.ID, info: info, sys: s, table: dvcore.NewTable()}
		n.deriveTransit()
		s.nodes[info.ID] = n
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
	if !s.started {
		s.started = true
		s.nw.Start()
	}
	return s.nw.RunToQuiescence(limit)
}

// Route implements core.System: per-QOS hop-by-hop forwarding.
func (s *System) Route(req policy.Request) core.Outcome {
	qos := req.QOS
	if int(qos) >= s.cfg.QOSClasses {
		qos = 0
	}
	k := dvcore.Key{Dest: req.Dst, QOS: qos}
	path, delivered, looped := dvcore.FollowNextHops(req.Src, k, func(id ad.ID) *dvcore.Table {
		if n, ok := s.nodes[id]; ok {
			return n.table
		}
		return nil
	})
	return core.Outcome{Path: path, Delivered: delivered, Looped: looped}
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
	id   ad.ID
	info ad.Info
	sys  *System

	table *dvcore.Table

	// transitQOS[q] is true when some local term offers QOS q.
	transitQOS []bool
	// transitCost[q] is the cheapest local term cost offering q.
	transitCost []uint32
	// destFilter is nil when all destinations may transit; otherwise the
	// union of the terms' destination sets.
	destAll bool
	destSet map[ad.ID]bool

	flushPending bool
}

// deriveTransit precomputes the node's QOS support, transit costs, and
// destination export filter from its local policy terms.
func (n *node) deriveTransit() {
	q := n.sys.cfg.QOSClasses
	n.transitQOS = make([]bool, q)
	n.transitCost = make([]uint32, q)
	n.destSet = make(map[ad.ID]bool)
	for _, t := range n.sys.db.Terms(n.id) {
		for c := 0; c < q; c++ {
			if !t.QOS.Contains(uint8(c)) {
				continue
			}
			if !n.transitQOS[c] || t.Cost < n.transitCost[c] {
				n.transitQOS[c] = true
				n.transitCost[c] = t.Cost
			}
		}
		if t.Dests.IsUniversal() {
			n.destAll = true
		} else {
			for _, d := range t.Dests.Members() {
				n.destSet[d] = true
			}
		}
	}
}

// mayExportDest reports whether the destination filter allows advertising
// routes to dest (destination-specific policies, paper §5.1).
func (n *node) mayExportDest(dest ad.ID) bool {
	return n.destAll || n.destSet[dest]
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
	if !have || e.Metric >= n.sys.cfg.Infinity {
		// Withdrawals propagate regardless of policy filters so stale
		// routes die.
		return wire.DVRoute{Dest: k.Dest, Metric: n.sys.cfg.Infinity, QOS: k.QOS, Flags: wire.FlagWithdraw}, true
	}
	isSelf := k.Dest == n.id
	if !isSelf {
		// Only transit-capable ADs re-advertise third-party routes:
		// stubs and multihomed stubs have no terms, so they never do
		// (information hiding + no-transit, §5.1).
		if !n.transitQOS[int(k.QOS)] {
			return wire.DVRoute{}, false
		}
		if !n.mayExportDest(k.Dest) {
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
		metric += n.transitCost[int(k.QOS)]
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
	inf := n.sys.cfg.Infinity
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
		if metric > inf || rt.Flags&wire.FlagWithdraw != 0 {
			metric = inf
		}
		k := dvcore.Key{Dest: rt.Dest, QOS: rt.QOS}
		cur, have := n.table.Get(k)
		switch {
		case have && cur.NextHop == from:
			e := dvcore.Entry{Key: k, Metric: metric, NextHop: from, Flags: flags}
			if metric >= inf {
				e.NextHop = ad.Invalid
			}
			if n.table.Set(e) {
				changed = true
			}
		case !have || metric < cur.Metric:
			if metric >= inf {
				continue
			}
			if n.table.Set(dvcore.Entry{Key: k, Metric: metric, NextHop: from, Flags: flags}) {
				changed = true
			}
		}
	}
	if changed {
		n.scheduleFlush(nw)
	}
}

func (n *node) LinkDown(nw *sim.Network, nb ad.ID) {
	inf := n.sys.cfg.Infinity
	changed := false
	for _, k := range n.table.ViaNeighbor(nb) {
		e, _ := n.table.Get(k)
		e.Metric = inf
		e.NextHop = ad.Invalid
		if n.table.Set(e) {
			changed = true
		}
	}
	if changed {
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

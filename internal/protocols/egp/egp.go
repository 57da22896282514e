// Package egp implements a baseline modelled on the Exterior Gateway
// Protocol (RFC 827/904) as characterized in Breslau & Estrin (SIGCOMM
// 1990) §3: a reachability protocol that exchanges which destinations are
// reachable but performs no loop-robust route computation, and therefore
// requires the inter-AD graph to be cycle-free ("there can be no cycles in
// the EGP graph").
//
// Reachability propagates breadth-first (first advertiser wins), which is
// loop-free on any topology at start-up. The failure mode appears on
// topologies with cycles after a link failure: a gateway falls back to any
// neighbor that ever advertised the destination, including one whose
// reachability was derived from the gateway itself, creating a persistent
// forwarding loop that the protocol has no mechanism to detect (experiment
// E6).
package egp

import (
	"slices"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config parameterizes the baseline.
type Config struct {
	// NoFallback disables the stale-advertiser fallback after a link
	// failure, modelling EGP's actual deployment style: statically
	// configured reachability that blackholes rather than adapts. With
	// fallback enabled (the default), the protocol adapts but can form
	// persistent loops — the dilemma behind the paper's "severe topology
	// restriction" (§3).
	NoFallback bool
}

// System is an EGP deployment.
type System struct {
	cfg Config
	nw  *sim.Network
	// nodes holds each AD's node at the AD's position in ids; every
	// node's tables are indexed by a destination's position there too.
	ids   []ad.ID
	nodes []*node

	computations int
	// rx is the update Receive decodes into, reused message to message:
	// routes are values, and nothing keeps a slice of it. tx is the
	// update every advertisement encodes, its routes built in out.
	rx, tx wire.EGPUpdate
	out    []wire.EGPRoute
}

// New builds the system over g. Policy is not representable in EGP beyond
// reachability hiding, which the baseline does not model.
func New(g *ad.Graph, cfg Config) *System {
	ids := g.IDs()
	s := &System{
		cfg:   cfg,
		nw:    sim.NewNetwork(g),
		ids:   ids,
		nodes: make([]*node, len(ids)),
	}
	for p, id := range ids {
		nbrs := g.Neighbors(id)
		n := &node{
			id:          id,
			sys:         s,
			nbrs:        nbrs,
			nextHop:     make([]ad.ID, len(ids)),
			metric:      make([]uint32, len(ids)),
			advertisers: make([]uint32, len(ids)*len(nbrs)),
		}
		s.nodes[p] = n
		s.nw.AddNode(n)
	}
	return s
}

// Name implements core.System.
func (s *System) Name() string { return "egp" }

// Network implements core.System.
func (s *System) Network() *sim.Network { return s.nw }

// Converge implements core.System.
func (s *System) Converge(limit sim.Time) (sim.Time, bool) {
	return s.nw.RunToQuiescence(limit)
}

// Route implements core.System.
func (s *System) Route(req policy.Request) core.Outcome {
	d := ad.Position(s.ids, req.Dst)
	return core.Forward(req.Src, req.Dst, func(cur, _ ad.ID) ad.ID {
		if p := ad.Position(s.ids, cur); p >= 0 && d >= 0 {
			return s.nodes[p].nextHop[d]
		}
		return ad.Invalid
	})
}

// StateEntries implements core.System.
func (s *System) StateEntries() int {
	total := 0
	for _, n := range s.nodes {
		total += n.routes
	}
	return total
}

// Computations implements core.System.
func (s *System) Computations() int { return s.computations }

// FailLink injects a link failure.
func (s *System) FailLink(a, b ad.ID) error { return s.nw.FailLink(a, b) }

// node is one AD's EGP gateway.
type node struct {
	id  ad.ID
	sys *System
	// nbrs is the AD's neighbours, ascending: the graph's adjacency.
	nbrs []ad.ID

	// nextHop and metric are the route to each destination, by position;
	// ad.Invalid marks none. routes counts the destinations with one.
	nextHop []ad.ID
	metric  []uint32
	routes  int
	// advertisers records every neighbor that ever claimed reachability
	// of a destination and the metric it quoted (one above its own, so
	// never 0; 0 means none) — the stale knowledge that creates loops
	// after failures on cyclic topologies. Destination d's entry from
	// neighbour nbrs[i] is advertisers[d*len(nbrs)+i].
	advertisers []uint32
}

func (n *node) ID() ad.ID { return n.id }

// setRoute installs the route to the destination at position d.
func (n *node) setRoute(d int, nh ad.ID, metric uint32) {
	if n.nextHop[d] == ad.Invalid {
		n.routes++
	}
	n.nextHop[d], n.metric[d] = nh, metric
}

func (n *node) Start(nw *sim.Network) {
	n.setRoute(ad.Position(n.sys.ids, n.id), n.id, 0)
	n.sys.out = append(n.sys.out[:0], wire.EGPRoute{Dest: n.id, Metric: 0})
	n.advertise(nw, n.sys.out, ad.Invalid)
}

// advertise sends reachability for the given routes to all up neighbors
// except skip.
func (n *node) advertise(nw *sim.Network, routes []wire.EGPRoute, skip ad.ID) {
	if len(routes) == 0 {
		return
	}
	n.sys.tx.Routes = routes
	nw.Flood(n.id, nw.Encode(&n.sys.tx), skip)
}

func (n *node) Receive(nw *sim.Network, from ad.ID, payload []byte) {
	s := n.sys
	upd := &s.rx
	if wire.UnmarshalInto(payload, upd) != nil {
		return
	}
	s.computations++
	i, ok := slices.BinarySearch(n.nbrs, from)
	if !ok {
		return
	}
	fresh := s.out[:0]
	for _, rt := range upd.Routes {
		d := ad.Position(s.ids, rt.Dest)
		if rt.Dest == n.id || d < 0 {
			continue
		}
		n.advertisers[d*len(n.nbrs)+i] = rt.Metric + 1
		// First advertiser wins: no metric-based replacement. This is
		// the protocol's simplicity and its trap.
		if n.nextHop[d] == ad.Invalid {
			n.setRoute(d, from, rt.Metric+1)
			fresh = append(fresh, wire.EGPRoute{Dest: rt.Dest, Metric: rt.Metric + 1})
		}
	}
	s.out = fresh
	// EGP neighbor-reachability messages list everything reachable to
	// every peer — there is no split horizon. Advertising back to the
	// peer a route was learned from is what seeds the stale-advertiser
	// loops on cyclic topologies.
	n.advertise(nw, fresh, ad.Invalid)
}

func (n *node) LinkDown(nw *sim.Network, nb ad.ID) {
	// Fall back to any other known advertiser — possibly one whose
	// reachability came through us. No verification, no withdrawal.
	// Destinations go in ascending order; the pick is the lowest up
	// neighbour that advertised the destination.
	for d, nh := range n.nextHop {
		if nh != nb {
			continue
		}
		n.nextHop[d], n.metric[d] = ad.Invalid, 0
		n.routes--
		if n.sys.cfg.NoFallback {
			continue // static deployment: blackhole, never adapt
		}
		alts := n.advertisers[d*len(n.nbrs) : (d+1)*len(n.nbrs)]
		for i, cand := range n.nbrs {
			if alts[i] != 0 && nw.LinkIsUp(n.id, cand) {
				n.setRoute(d, cand, alts[i])
				break
			}
		}
	}
}

func (n *node) LinkUp(nw *sim.Network, nb ad.ID) {
	// Re-advertise everything we can reach to the recovered neighbor.
	routes := n.sys.out[:0]
	for d, nh := range n.nextHop {
		if nh != ad.Invalid {
			routes = append(routes, wire.EGPRoute{Dest: n.sys.ids[d], Metric: n.metric[d]})
		}
	}
	n.sys.out = routes
	if len(routes) > 0 {
		n.sys.tx.Routes = routes
		nw.SendMessage(n.id, nb, &n.sys.tx)
	}
}

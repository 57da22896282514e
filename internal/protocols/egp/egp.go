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
	"sort"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config parameterizes the baseline.
type Config struct {
	// Seed fixes the network RNG.
	Seed int64
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
	cfg   Config
	nw    *sim.Network
	nodes map[ad.ID]*node

	computations int
	started      bool
	// rx is the update Receive decodes into, reused message to message:
	// routes are values, and nothing keeps a slice of it.
	rx wire.EGPUpdate
}

// New builds the system over g. Policy is not representable in EGP beyond
// reachability hiding, which the baseline does not model.
func New(g *ad.Graph, cfg Config) *System {
	s := &System{
		cfg:   cfg,
		nw:    sim.NewNetwork(g, cfg.Seed),
		nodes: make(map[ad.ID]*node),
	}
	for _, id := range g.IDs() {
		n := &node{
			id:          id,
			sys:         s,
			nextHop:     make(map[ad.ID]ad.ID),
			metric:      make(map[ad.ID]uint32),
			advertisers: make(map[ad.ID]map[ad.ID]uint32),
		}
		s.nodes[id] = n
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
	if !s.started {
		s.started = true
		s.nw.Start()
	}
	return s.nw.RunToQuiescence(limit)
}

// Route implements core.System.
func (s *System) Route(req policy.Request) core.Outcome {
	cur := req.Src
	path := ad.Path{cur}
	seen := map[ad.ID]bool{}
	for cur != req.Dst {
		if seen[cur] {
			return core.Outcome{Path: path, Looped: true}
		}
		seen[cur] = true
		n, ok := s.nodes[cur]
		if !ok {
			return core.Outcome{Path: path}
		}
		nh, ok := n.nextHop[req.Dst]
		if !ok || nh == ad.Invalid {
			return core.Outcome{Path: path}
		}
		cur = nh
		path = append(path, cur)
	}
	return core.Outcome{Path: path, Delivered: true}
}

// StateEntries implements core.System.
func (s *System) StateEntries() int {
	total := 0
	for _, n := range s.nodes {
		total += len(n.nextHop)
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

	nextHop map[ad.ID]ad.ID
	metric  map[ad.ID]uint32
	// advertisers records every neighbor that ever claimed reachability
	// of a destination and the metric it quoted — the stale knowledge
	// that creates loops after failures on cyclic topologies.
	advertisers map[ad.ID]map[ad.ID]uint32
}

func (n *node) ID() ad.ID { return n.id }

func (n *node) Start(nw *sim.Network) {
	n.nextHop[n.id] = n.id
	n.metric[n.id] = 0
	n.advertise(nw, []wire.EGPRoute{{Dest: n.id, Metric: 0}}, ad.Invalid)
}

// advertise sends reachability for the given routes to all up neighbors
// except skip.
func (n *node) advertise(nw *sim.Network, routes []wire.EGPRoute, skip ad.ID) {
	if len(routes) == 0 {
		return
	}
	msg := nw.Encode(&wire.EGPUpdate{Routes: routes})
	for _, nb := range nw.UpNeighbors(n.id) {
		if nb == skip {
			continue
		}
		nw.Send("egp", n.id, nb, msg)
	}
}

func (n *node) Receive(nw *sim.Network, from ad.ID, payload []byte) {
	upd := &n.sys.rx
	if wire.UnmarshalInto(payload, upd) != nil {
		return
	}
	n.sys.computations++
	var fresh []wire.EGPRoute
	for _, rt := range upd.Routes {
		if rt.Dest == n.id {
			continue
		}
		if n.advertisers[rt.Dest] == nil {
			n.advertisers[rt.Dest] = make(map[ad.ID]uint32)
		}
		n.advertisers[rt.Dest][from] = rt.Metric + 1
		// First advertiser wins: no metric-based replacement. This is
		// the protocol's simplicity and its trap.
		if _, have := n.nextHop[rt.Dest]; !have {
			n.nextHop[rt.Dest] = from
			n.metric[rt.Dest] = rt.Metric + 1
			fresh = append(fresh, wire.EGPRoute{Dest: rt.Dest, Metric: rt.Metric + 1})
		}
	}
	// EGP neighbor-reachability messages list everything reachable to
	// every peer — there is no split horizon. Advertising back to the
	// peer a route was learned from is what seeds the stale-advertiser
	// loops on cyclic topologies.
	n.advertise(nw, fresh, ad.Invalid)
}

func (n *node) LinkDown(nw *sim.Network, nb ad.ID) {
	// Fall back to any other known advertiser — possibly one whose
	// reachability came through us. No verification, no withdrawal.
	var dests []ad.ID
	for dest, nh := range n.nextHop {
		if nh == nb {
			dests = append(dests, dest)
		}
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	for _, dest := range dests {
		delete(n.nextHop, dest)
		delete(n.metric, dest)
		if n.sys.cfg.NoFallback {
			continue // static deployment: blackhole, never adapt
		}
		alts := n.advertisers[dest]
		var pick ad.ID
		var pickMetric uint32
		for _, cand := range nw.UpNeighbors(n.id) {
			if m, ok := alts[cand]; ok {
				if pick == ad.Invalid || cand < pick {
					pick = cand
					pickMetric = m
				}
			}
		}
		if pick != ad.Invalid {
			n.nextHop[dest] = pick
			n.metric[dest] = pickMetric
		}
	}
}

func (n *node) LinkUp(nw *sim.Network, nb ad.ID) {
	// Re-advertise everything we can reach to the recovered neighbor.
	var routes []wire.EGPRoute
	var dests []ad.ID
	for dest := range n.nextHop {
		dests = append(dests, dest)
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	for _, dest := range dests {
		routes = append(routes, wire.EGPRoute{Dest: dest, Metric: n.metric[dest]})
	}
	if len(routes) > 0 {
		nw.SendMessage("egp", n.id, nb, &wire.EGPUpdate{Routes: routes})
	}
}

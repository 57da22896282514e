// Package plaindv implements a traditional Bellman-Ford distance-vector
// routing protocol (RIP-like) with no policy support. It is the convergence
// baseline of experiment E2: with split horizon disabled it exhibits the
// count-to-infinity behaviour the paper attributes to "other DV algorithms"
// (§5.1.1), and it freely violates transit policy because it cannot see it
// (§3).
package plaindv

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/dvcore"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/wire"
)

// infinity is the unreachable metric, classic RIP's 16.
const infinity = 16

// Config parameterizes the protocol.
type Config struct {
	// SplitHorizon suppresses advertising a route back to the neighbor
	// it was learned from.
	SplitHorizon bool
	// Seed fixes the network RNG.
	Seed int64
}

// flushDelay batches triggered updates dirtied within a small window.
const flushDelay = sim.Millisecond

// node is one AD's distance-vector process.
type node struct {
	id           ad.ID
	sys          *System
	table        *dvcore.Table
	flushPending bool
}

// System is a plain-DV deployment over a topology.
type System struct {
	cfg   Config
	nw    *sim.Network
	nodes map[ad.ID]*node
	// computations counts table update rounds (one per processed
	// message), the DV analogue of a route computation.
	computations int
	// rx is the update Receive decodes into and tx the one flush builds,
	// each reused message to message: routes are values, and nothing
	// keeps a slice of either.
	rx, tx wire.DVUpdate
}

// New builds the system over g. The policy database is deliberately ignored:
// plain DV has no way to express it.
func New(g *ad.Graph, cfg Config) *System {
	s := &System{
		cfg:   cfg,
		nw:    sim.NewNetwork(g, cfg.Seed),
		nodes: make(map[ad.ID]*node),
	}
	for _, id := range g.IDs() {
		n := &node{id: id, sys: s, table: dvcore.NewTable()}
		s.nodes[id] = n
		s.nw.AddNode(n)
	}
	return s
}

// Name implements core.System.
func (s *System) Name() string { return "plain-dv" }

// Network implements core.System.
func (s *System) Network() *sim.Network { return s.nw }

// Converge implements core.System.
func (s *System) Converge(limit sim.Time) (sim.Time, bool) {
	return s.nw.RunToQuiescence(limit)
}

// Route implements core.System: hop-by-hop forwarding over the FIBs.
func (s *System) Route(req policy.Request) core.Outcome {
	k := dvcore.Key{Dest: req.Dst, QOS: 0}
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

// FailLink injects a link failure.
func (s *System) FailLink(a, b ad.ID) error { return s.nw.FailLink(a, b) }

// node implementation.

func (n *node) ID() ad.ID { return n.id }

func (n *node) Start(nw *sim.Network) {
	n.table.Set(dvcore.Entry{Key: dvcore.Key{Dest: n.id}, Metric: 0, NextHop: n.id})
	n.scheduleFlush(nw)
}

func (n *node) scheduleFlush(nw *sim.Network) {
	if n.flushPending {
		return
	}
	n.flushPending = true
	nw.After(flushDelay, func() {
		n.flushPending = false
		n.flush(nw)
	})
}

// flush sends the dirtied routes to every up neighbor, applying split
// horizon per neighbor if configured.
func (n *node) flush(nw *sim.Network) {
	dirty := n.table.TakeDirty()
	if len(dirty) == 0 {
		return
	}
	for _, nb := range nw.UpNeighbors(n.id) {
		upd := &n.sys.tx
		upd.Routes = upd.Routes[:0]
		for _, k := range dirty {
			e, ok := n.table.Get(k)
			if !ok {
				upd.Routes = append(upd.Routes, wire.DVRoute{Dest: k.Dest, Metric: infinity})
				continue
			}
			if n.sys.cfg.SplitHorizon && e.NextHop == nb {
				continue
			}
			upd.Routes = append(upd.Routes, wire.DVRoute{Dest: k.Dest, Metric: e.Metric})
		}
		if len(upd.Routes) > 0 {
			nw.SendMessage("dv", n.id, nb, upd)
		}
	}
}

func (n *node) Receive(nw *sim.Network, from ad.ID, payload []byte) {
	upd := &n.sys.rx
	if wire.UnmarshalInto(payload, upd) != nil {
		return
	}
	if len(upd.Routes) == 0 {
		// RIP-style full-table request (sent after a topology change):
		// respond with the complete table, split-horizon filtered.
		n.respondFullTable(nw, from)
		return
	}
	n.sys.computations++
	link, ok := nw.Graph.LinkBetween(n.id, from)
	if !ok {
		return
	}
	changed := false
	for _, rt := range upd.Routes {
		if rt.Dest != n.id {
			changed = n.table.Learn(dvcore.Key{Dest: rt.Dest}, rt.Metric+link.Cost, infinity, from, 0) || changed
		}
	}
	if changed {
		n.scheduleFlush(nw)
	}
}

// respondFullTable answers a table request from nb with every route,
// applying split horizon if configured.
func (n *node) respondFullTable(nw *sim.Network, nb ad.ID) {
	var upd wire.DVUpdate
	for _, e := range n.table.Entries() {
		if n.sys.cfg.SplitHorizon && e.NextHop == nb {
			continue
		}
		upd.Routes = append(upd.Routes, wire.DVRoute{Dest: e.Key.Dest, Metric: e.Metric})
	}
	if len(upd.Routes) > 0 {
		nw.SendMessage("dv", n.id, nb, &upd)
	}
}

func (n *node) LinkDown(nw *sim.Network, nb ad.ID) {
	if n.table.Poison(nb, infinity) {
		n.scheduleFlush(nw)
		// Solicit alternatives from the remaining neighbors (RIP
		// request). Without split horizon a neighbor may answer with
		// the stale route it learned from us, starting the classic
		// count-to-infinity bounce.
		for _, other := range nw.UpNeighbors(n.id) {
			nw.SendMessage("dv", n.id, other, &wire.DVUpdate{})
		}
	}
}

func (n *node) LinkUp(nw *sim.Network, nb ad.ID) {
	// Re-advertise the full table to the recovered neighbor by marking
	// everything dirty.
	for _, e := range n.table.Entries() {
		n.table.Delete(e.Key)
		n.table.Set(e)
	}
	n.scheduleFlush(nw)
}

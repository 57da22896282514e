package dvcore

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Design is what sets one distance-vector protocol apart from another: its
// name, its unreachable metric, the QOS classes it keeps a table for, and
// the rule that decides what an AD tells each neighbour.
type Design struct {
	// Name identifies the protocol in reports.
	Name string
	// Infinity is the unreachable metric.
	Infinity uint32
	// Classes is the number of QOS classes routed, at least 1.
	Classes int
	// Export returns the route AD self advertises to neighbour nb for e, a
	// reachable entry of its table, or false to withhold it. Unreachable
	// entries are withdrawn to every neighbour past the rule, so stale
	// routes die.
	Export func(self, nb ad.ID, e Entry) (wire.DVRoute, bool)
}

// flushDelay batches triggered updates dirtied within a small window.
const flushDelay = sim.Millisecond

// System is a distance-vector deployment over a topology: one node per AD,
// each keeping a Table and exchanging wire.DVUpdate messages under the
// design's export rule.
type System struct {
	d  Design
	nw *sim.Network
	// nodes holds each AD's node at the AD's position in ids.
	ids   []ad.ID
	nodes []node
	// computations counts table update rounds (one per processed update),
	// the DV analogue of a route computation.
	computations int
	// rx is the update Receive decodes into and tx the one every send
	// builds, each reused message to message: routes are values, and
	// nothing keeps a slice of either. all holds a full-table answer's
	// contexts.
	rx, tx wire.DVUpdate
	all    []int32
}

// NewSystem builds a system of design d over g.
func NewSystem(g *ad.Graph, d Design) *System {
	ids := g.IDs()
	ctx := NewContexts(ids, d.Classes)
	s := &System{d: d, nw: sim.NewNetwork(g), ids: ids, nodes: make([]node, len(ids))}
	for p, id := range ids {
		n := &s.nodes[p]
		*n = node{id: id, sys: s, nbrs: g.Neighbors(id), table: NewTable(ctx)}
		n.flushFn = n.flush
		s.nw.AddNode(n)
	}
	return s
}

// Name implements core.System.
func (s *System) Name() string { return s.d.Name }

// Network implements core.System.
func (s *System) Network() *sim.Network { return s.nw }

// Converge implements core.System.
func (s *System) Converge(limit sim.Time) (sim.Time, bool) {
	return s.nw.RunToQuiescence(limit)
}

// Route implements core.System: hop-by-hop forwarding over the tables of
// the request's QOS class, or of class 0 when that class is not routed.
func (s *System) Route(req policy.Request) core.Outcome {
	qos := req.QOS
	if int(qos) >= s.d.Classes {
		qos = 0
	}
	k := Key{Dest: req.Dst, QOS: qos}
	return core.Forward(req.Src, req.Dst, func(cur, _ ad.ID) ad.ID {
		if p := ad.Position(s.ids, cur); p >= 0 {
			return s.nodes[p].table.NextHop(k)
		}
		return ad.Invalid
	})
}

// StateEntries implements core.System.
func (s *System) StateEntries() int {
	total := 0
	for i := range s.nodes {
		total += s.nodes[i].table.Len()
	}
	return total
}

// Computations implements core.System.
func (s *System) Computations() int { return s.computations }

// FailLink injects a link failure.
func (s *System) FailLink(a, b ad.ID) error { return s.nw.FailLink(a, b) }

// node is one AD's distance-vector process.
type node struct {
	id  ad.ID
	sys *System
	// nbrs is the AD's neighbours, ascending: the graph's adjacency.
	nbrs  []ad.ID
	table *Table

	flushPending bool
	// flushFn is n.flush, bound once so scheduling a flush allocates
	// nothing.
	flushFn func()
}

func (n *node) ID() ad.ID { return n.id }

// Start originates the self route in every QOS class: any AD accepts
// traffic destined to itself regardless of class.
func (n *node) Start(nw *sim.Network) {
	for q := 0; q < n.sys.d.Classes; q++ {
		n.table.Set(Entry{Key: Key{Dest: n.id, QOS: policy.QOS(q)}, NextHop: n.id})
	}
	n.scheduleFlush(nw)
}

func (n *node) scheduleFlush(nw *sim.Network) {
	if n.flushPending {
		return
	}
	n.flushPending = true
	nw.After(flushDelay, n.flushFn)
}

// flush advertises the contexts changed since the last flush to every up
// neighbour.
func (n *node) flush() {
	n.flushPending = false
	dirty := n.table.dirty.Take()
	if len(dirty) == 0 {
		return
	}
	for _, nb := range n.nbrs {
		n.send(n.sys.nw, nb, dirty)
	}
}

// send advertises the routes at contexts ctxs, ascending, to nb if the
// link to it is up: a withdrawal for each unreachable one, and for the
// others what the design exports to nb.
func (n *node) send(nw *sim.Network, nb ad.ID, ctxs []int32) {
	if !nw.LinkIsUp(n.id, nb) {
		return
	}
	d := &n.sys.d
	upd := &n.sys.tx
	upd.Routes = upd.Routes[:0]
	for _, i := range ctxs {
		e := n.table.entries[i]
		if e.Metric >= d.Infinity {
			upd.Routes = append(upd.Routes, wire.DVRoute{
				Dest: e.Key.Dest, Metric: d.Infinity, QOS: e.Key.QOS, Flags: wire.FlagWithdraw,
			})
		} else if rt, ok := d.Export(n.id, nb, e); ok {
			upd.Routes = append(upd.Routes, rt)
		}
	}
	if len(upd.Routes) > 0 {
		nw.SendMessage(n.id, nb, upd)
	}
}

// sendTable advertises the whole table to nb.
func (n *node) sendTable(nw *sim.Network, nb ad.ID) {
	all := n.sys.all[:0]
	for i, ok := range n.table.present {
		if ok {
			all = append(all, int32(i))
		}
	}
	n.sys.all = all
	n.send(nw, nb, all)
}

// request asks nb for its whole table: an update with no routes, RIP's
// request.
func (n *node) request(nw *sim.Network, nb ad.ID) {
	n.sys.tx.Routes = n.sys.tx.Routes[:0]
	nw.SendMessage(n.id, nb, &n.sys.tx)
}

func (n *node) Receive(nw *sim.Network, from ad.ID, payload []byte) {
	s := n.sys
	upd := &s.rx
	if wire.UnmarshalInto(payload, upd) != nil {
		return
	}
	if len(upd.Routes) == 0 {
		// A table request, sent after a topology change.
		n.sendTable(nw, from)
		return
	}
	s.computations++
	link, ok := nw.Graph.LinkBetween(n.id, from)
	if !ok {
		return
	}
	changed := false
	for _, rt := range upd.Routes {
		if rt.Dest == n.id || int(rt.QOS) >= s.d.Classes {
			continue
		}
		metric := rt.Metric + link.Cost
		if rt.Flags&wire.FlagWithdraw != 0 {
			metric = s.d.Infinity
		}
		k := Key{Dest: rt.Dest, QOS: rt.QOS}
		changed = n.table.Learn(k, metric, s.d.Infinity, from, rt.Flags&^wire.FlagWithdraw) || changed
	}
	if changed {
		n.scheduleFlush(nw)
	}
}

// LinkDown makes every route through nb unreachable and, if that changed
// any, asks the remaining neighbours for their tables. Without split
// horizon a neighbour may answer with the stale route it learned from this
// AD, starting the classic count-to-infinity bounce.
func (n *node) LinkDown(nw *sim.Network, nb ad.ID) {
	if !n.table.Poison(nb, n.sys.d.Infinity) {
		return
	}
	n.scheduleFlush(nw)
	for _, other := range n.nbrs {
		if nw.LinkIsUp(n.id, other) {
			n.request(nw, other)
		}
	}
}

// LinkUp sends the recovered neighbour the whole table and asks for its
// own.
func (n *node) LinkUp(nw *sim.Network, nb ad.ID) {
	n.sendTable(nw, nb)
	n.request(nw, nb)
}

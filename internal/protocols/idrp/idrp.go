// Package idrp implements the IDRP / BGP-2 family of inter-domain routing
// protocols as analysed in Breslau & Estrin (SIGCOMM 1990) §5.2: hop-by-hop
// distance-vector routing augmented with full AD-path information (for loop
// avoidance) and explicit policy attributes in routing updates.
//
// Each route advertisement carries the AD path, the set of source ADs
// permitted to use the route (the intersection of every traversed AD's
// source policy), and the admitted user classes. A receiving AD rejects
// routes containing itself, filters by its own import policy, selects the
// best usable route per (destination, QOS), and re-advertises it with its
// own policy attributes folded in.
//
// The paper's criticism is built in and measurable: in single-route mode an
// AD advertises only one route per destination per QOS, so a route legal for
// some source may be hidden by a selected route that excludes that source
// (experiments E1, E12). MultiRoute > 1 enables the multi-route variant the
// paper sketches, trading routing-table state for availability.
package idrp

import (
	"bytes"
	"cmp"
	"slices"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/dvcore"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config parameterizes the protocol.
type Config struct {
	// MultiRoute is the maximum number of attribute-distinct routes
	// advertised per (destination, QOS). 1 is classic IDRP/BGP-2.
	MultiRoute int
	// QOSClasses is the number of QOS classes routed.
	QOSClasses int
	// BGPMode drops the source-specific policy attributes from updates,
	// modelling BGP as specified in RFC 1163: "The BGP protocol ... does
	// not allow for the expression of such source specific policies"
	// (paper §5.2.1 footnote). Transit source restrictions then exist
	// only in intent, and the data plane violates them.
	BGPMode bool
}

// Normalize fills defaults.
func (c Config) Normalize() Config {
	if c.MultiRoute < 1 {
		c.MultiRoute = 1
	}
	if c.QOSClasses < 1 {
		c.QOSClasses = 1
	}
	if c.QOSClasses > policy.MaxClasses {
		c.QOSClasses = policy.MaxClasses
	}
	return c
}

const flushDelay = sim.Millisecond

// route is one candidate path with its policy attributes, as stored in the
// Adj-RIB-In.
type route struct {
	path    ad.Path // from the advertising neighbor to dest, inclusive
	metric  uint32  // advertised metric (neighbor's cost to dest)
	sources policy.ADSet
	uci     policy.ClassSet
	from    ad.ID
}

// sameAttrs reports whether two routes carry identical policy attributes,
// the distinctness test of multi-route mode.
func (r route) sameAttrs(o route) bool {
	return r.uci == o.uci && r.sources.Equal(o.sources)
}

// System is an IDRP deployment.
type System struct {
	cfg Config
	nw  *sim.Network
	// ctx numbers the routing contexts (destination, QOS) as dvcore
	// does: marks and every node's RIBs are indexed by context number,
	// nodes by the AD's position in ids.
	ctx   dvcore.Contexts
	ids   []ad.ID
	nodes []*node

	computations int

	// sets holds one copy of every source set the system has received:
	// Receive decodes through it, so every route carrying a set shares
	// the copy, and a set seen before costs a decode no allocation.
	sets wire.SetTable

	// Scratch shared by every node of the system. Nodes run one callback
	// at a time inside the event loop, and nothing here outlives the call
	// that fills it, so a message costs no allocation for bookkeeping.
	//
	// rx is the update Receive decodes into; its paths are overwritten by
	// the next decode, so a kept route copies its path. marks records, per
	// context, the Receive that last changed it and the Receive that last
	// refilled a neighbour's candidates for it; receives numbers the calls.
	// changed lists the contexts a Receive or LinkDown reselects.
	rx       wire.PathVector
	marks    []mark
	receives uint64
	changed  []int32
	// sel is selectRoutes' picks.
	sel []route
	// keys holds LinkUp's contexts, sorted. exports holds a flush's exported
	// routes, context i's at exports[ends[i-1]:ends[i]], with paths backed
	// by paths; upd is the update built from them for one neighbour.
	keys    []int32
	exports []wire.PVRoute
	ends    []int
	paths   []ad.ID
	upd     wire.PathVector
}

// mark is what System.marks holds for one context: the numbers of the last
// Receive to put it on the changed list and the last to refill a
// neighbour's candidates for it.
type mark struct{ changed, replaced uint64 }

// New builds the system over g with policy db.
func New(g *ad.Graph, db *policy.DB, cfg Config) *System {
	cfg = cfg.Normalize()
	ids := g.IDs()
	ctx := dvcore.NewContexts(ids, cfg.QOSClasses)
	s := &System{
		cfg:   cfg,
		nw:    sim.NewNetwork(g),
		ctx:   ctx,
		ids:   ids,
		nodes: make([]*node, len(ids)),
		marks: make([]mark, ctx.Len()),
	}
	for p, id := range ids {
		n := &node{
			id:      id,
			sys:     s,
			cands:   make([][]route, ctx.Len()),
			adv:     make([]route, ctx.Len()),
			nadv:    make([]int32, ctx.Len()),
			dirty:   dvcore.NewDirty(ctx.Len()),
			transit: db.TransitOf(id, cfg.QOSClasses),
		}
		n.flushFn = n.flush
		s.nodes[p] = n
		s.nw.AddNode(n)
	}
	return s
}

// node returns id's node, or nil when the graph has no such AD.
func (s *System) node(id ad.ID) *node {
	if p := ad.Position(s.ids, id); p >= 0 {
		return s.nodes[p]
	}
	return nil
}

// Name implements core.System.
func (s *System) Name() string {
	if s.cfg.BGPMode {
		return "bgp"
	}
	if s.cfg.MultiRoute > 1 {
		return "idrp-multi"
	}
	return "idrp"
}

// Network implements core.System.
func (s *System) Network() *sim.Network { return s.nw }

// Converge implements core.System.
func (s *System) Converge(limit sim.Time) (sim.Time, bool) {
	return s.nw.RunToQuiescence(limit)
}

// Route implements core.System: hop-by-hop forwarding where each AD uses
// its selected route whose attributes admit the traffic. The data plane
// enforces policy attributes: traffic whose source a selected route
// excludes is dropped, which is how "no available route when in fact a
// legal route exists" (§5.1) manifests.
func (s *System) Route(req policy.Request) core.Outcome {
	qos := req.QOS
	if int(qos) >= s.cfg.QOSClasses {
		qos = 0
	}
	k := s.ctx.Index(dvcore.Key{Dest: req.Dst, QOS: qos})
	return core.Forward(req.Src, req.Dst, func(cur, _ ad.ID) ad.ID {
		if n := s.node(cur); n != nil && k >= 0 {
			for _, r := range n.selected(k) {
				if r.sources.Contains(req.Src) && r.uci.Contains(uint8(req.UCI)) {
					return r.from
				}
			}
		}
		return ad.Invalid
	})
}

// StateEntries implements core.System: total Adj-RIB-In candidate routes
// plus selected routes — the routing-table replication metric of E12.
func (s *System) StateEntries() int {
	total := 0
	for _, n := range s.nodes {
		for _, rs := range n.cands {
			total += len(rs)
		}
		for _, c := range n.nadv {
			total += int(c)
		}
	}
	return total
}

// Computations implements core.System.
func (s *System) Computations() int { return s.computations }

// FailLink injects a link failure.
func (s *System) FailLink(a, b ad.ID) error { return s.nw.FailLink(a, b) }

// node is one AD's IDRP process.
type node struct {
	id  ad.ID
	sys *System

	// cands is the Adj-RIB-In: the candidate routes by context number,
	// every neighbor's in one slice.
	cands [][]route
	// adv is the Loc-RIB/Adj-RIB-Out: the routes currently selected and
	// advertised, up to MultiRoute per context, nadv[k] of them for
	// context k (see selected). adv[k] holds context k's first, so one
	// slab made in New holds every single-route selection and a new one is
	// copied in place, never allocated; in multi-route mode, more[k] holds
	// all of context k's once it has selected more than one.
	adv  []route
	nadv []int32
	more [][]route

	// transit is what the local policy terms offer re-advertised routes.
	transit policy.Transit

	flushPending bool
	// dirty holds the contexts to advertise at the next flush.
	dirty dvcore.Dirty
	// flushFn is n.flush, bound once so scheduling a flush allocates
	// nothing.
	flushFn func()
}

func (n *node) ID() ad.ID { return n.id }

// selected returns the routes selected for context k.
func (n *node) selected(k int) []route {
	if n.nadv[k] > 1 {
		return n.more[k]
	}
	return n.adv[k : k+int(n.nadv[k])]
}

// setSelected copies sel, at most MultiRoute routes, into context k's
// selection, clearing what it no longer fills so those paths can go.
func (n *node) setSelected(k int, sel []route) {
	n.nadv[k] = int32(len(sel))
	n.adv[k] = route{}
	if len(sel) > 0 {
		n.adv[k] = sel[0]
	}
	if len(sel) < 2 {
		if n.more != nil {
			clear(n.more[k])
			n.more[k] = n.more[k][:0]
		}
		return
	}
	if n.more == nil {
		n.more = make([][]route, len(n.adv))
	}
	old := n.more[k]
	n.more[k] = append(old[:0], sel...)
	if len(old) > len(sel) {
		clear(old[len(sel):])
	}
}

func (n *node) Start(nw *sim.Network) {
	// Originate the self route in every QOS class.
	for q := 0; q < n.sys.cfg.QOSClasses; q++ {
		k := n.sys.ctx.Index(dvcore.Key{Dest: n.id, QOS: policy.QOS(q)})
		n.setSelected(k, []route{{
			path:    ad.Path{n.id},
			metric:  0,
			sources: policy.Universal(),
			uci:     policy.AllClasses,
			from:    n.id,
		}})
		n.dirty.Mark(k)
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

// flush advertises every context marked dirty since the last flush.
func (n *node) flush() {
	n.flushPending = false
	n.flushTo(n.sys.nw, n.dirty.Take(), ad.Invalid)
}

// exportRoutes appends to out the PVRoutes n advertises for context i: the
// selected routes, with n prepended to the path, n's policy attributes
// intersected in, and the transit cost added. Appending none means
// withdraw. The prepended paths live in the system's paths scratch.
func (n *node) exportRoutes(out []wire.PVRoute, i int32) []wire.PVRoute {
	s := n.sys
	k := s.ctx.Key(int(i))
	isSelf := k.Dest == n.id
	for _, r := range n.selected(int(i)) {
		pv := wire.PVRoute{
			Dest:   k.Dest,
			QOS:    k.QOS,
			Metric: r.metric,
		}
		if isSelf {
			pv.AllowedSources = policy.Universal()
			pv.UCI = policy.AllClasses
		} else {
			// Re-advertising makes n a transit for the route: n
			// must have terms, offer the QOS, and carry the dest.
			if !n.transit.OK[int(k.QOS)] || !n.transit.Dests.Contains(k.Dest) {
				continue
			}
			if n.sys.cfg.BGPMode {
				// BGP-1/2: no source/UCI policy attributes ride in
				// updates; routes claim universality.
				pv.AllowedSources = policy.Universal()
				pv.UCI = policy.AllClasses
			} else {
				pv.AllowedSources = r.sources.Intersect(n.transit.Sources)
				pv.UCI = r.uci & n.transit.UCI
				if pv.AllowedSources.Empty() || pv.UCI == 0 {
					continue
				}
			}
			pv.Metric = r.metric + n.transit.Cost[int(k.QOS)]
		}
		start := len(s.paths)
		s.paths = append(append(s.paths, n.id), r.path...)
		pv.Path = s.paths[start:len(s.paths):len(s.paths)]
		out = append(out, pv)
	}
	return out
}

// flushTo advertises the given contexts, ascending, to every up neighbor (or
// only to `only`). A context with no exportable routes is sent as a
// withdrawal. The contexts go in one update unless its body would overrun
// a frame; then it is split between contexts, never within one, since
// Receive takes a context's routes in an update as the neighbor's whole
// offering for it.
func (n *node) flushTo(nw *sim.Network, keys []int32, only ad.ID) {
	if len(keys) == 0 {
		return
	}
	s := n.sys
	s.exports, s.ends, s.paths = s.exports[:0], s.ends[:0], s.paths[:0]
	for _, k := range keys {
		s.exports = n.exportRoutes(s.exports, k)
		s.ends = append(s.ends, len(s.exports))
	}
	upd := &s.upd
	for _, nb := range nw.Graph.Neighbors(n.id) {
		if only != ad.Invalid && nb != only || !nw.LinkIsUp(n.id, nb) {
			continue
		}
		upd.Routes = upd.Routes[:0]
		start, body := 0, 2 // the route count
		for i, k := range keys {
			first := len(upd.Routes)
			// Receiver-side loop rejection also exists; skipping
			// routes through nb here is sender-side cleanliness.
			sentAny := false
			for _, pv := range s.exports[start:s.ends[i]] {
				if pv.Path.Contains(nb) {
					continue
				}
				upd.Routes = append(upd.Routes, pv)
				sentAny = true
			}
			if !sentAny {
				key := s.ctx.Key(int(k))
				upd.Routes = append(upd.Routes, wire.PVRoute{
					Dest: key.Dest, QOS: key.QOS, Withdrawn: true,
					AllowedSources: policy.SetOf(),
				})
			}
			start = s.ends[i]
			size := 0
			for j := first; j < len(upd.Routes); j++ {
				size += upd.Routes[j].Len()
			}
			if body+size > wire.MaxBody && first > 0 {
				rest := upd.Routes[first:]
				upd.Routes = upd.Routes[:first]
				nw.SendMessage(n.id, nb, upd)
				upd.Routes, body = append(upd.Routes[:0], rest...), 2
			}
			body += size
		}
		if len(upd.Routes) > 0 {
			nw.SendMessage(n.id, nb, upd)
		}
	}
}

func (n *node) Receive(nw *sim.Network, from ad.ID, payload []byte) {
	s := n.sys
	if s.sets.UnmarshalInto(payload, &s.rx) != nil {
		return
	}
	s.computations++
	link, haveLink := nw.Graph.LinkBetween(n.id, from)
	if !haveLink {
		return
	}
	s.receives++
	changed := s.changed[:0]
	for i := range s.rx.Routes {
		pv := &s.rx.Routes[i]
		if int(pv.QOS) >= s.cfg.QOSClasses || pv.Dest == n.id {
			continue
		}
		k := int32(s.ctx.Index(dvcore.Key{Dest: pv.Dest, QOS: pv.QOS}))
		if k < 0 {
			continue
		}
		m := &s.marks[k]
		switch {
		case pv.Withdrawn:
			rs := n.cands[k]
			kept := slices.DeleteFunc(rs, func(c route) bool { return c.from == from })
			if len(kept) == len(rs) {
				continue
			}
			n.cands[k] = kept
		case pv.Path.Contains(n.id):
			// Loop avoidance: reject routes containing ourselves (§5.2.1).
			continue
		default:
			r := route{
				path:    pv.Path,
				metric:  pv.Metric + link.Cost,
				sources: pv.AllowedSources,
				uci:     pv.UCI,
				from:    from,
			}
			rs := n.cands[k]
			// A neighbor's full offering for one context arrives in one
			// message: its first route replaces what the neighbor
			// offered before, later ones (multi-route mode) accumulate.
			if m.replaced != s.receives {
				m.replaced = s.receives
				r.path = keptPath(rs, from, pv.Path)
				rs = slices.DeleteFunc(rs, func(c route) bool { return c.from == from })
			} else {
				r.path = slices.Clone(pv.Path)
			}
			n.cands[k] = append(rs, r)
		}
		if m.changed != s.receives {
			m.changed = s.receives
			changed = append(changed, k)
		}
	}
	s.changed = changed
	n.reselect(nw, changed)
}

// keptPath returns a path of the node's own equal to p, which is the decode
// scratch's: the path of from's stored route when equal — the neighbor
// re-advertised it — and a copy otherwise. Stored paths are never written
// to, so routes share them freely.
func keptPath(rs []route, from ad.ID, p ad.Path) ad.Path {
	for _, c := range rs {
		if c.from == from && c.path.Equal(p) {
			return c.path
		}
	}
	return slices.Clone(p)
}

// reselect recomputes the selected route set for each changed context and
// schedules advertisement of the differences.
func (n *node) reselect(nw *sim.Network, changed []int32) {
	any := false
	for _, k := range changed {
		if n.sys.ctx.Key(int(k)).Dest == n.id {
			continue
		}
		sel := n.selectRoutes(k)
		if !routesEqual(sel, n.selected(int(k))) {
			n.setSelected(int(k), sel)
			n.dirty.Mark(int(k))
			any = true
		}
	}
	if any {
		n.scheduleFlush(nw)
	}
}

// selectRoutes picks up to MultiRoute best candidates for k, requiring
// attribute-distinct routes beyond the first (the paper's condition for
// loop-safe multi-route advertisement: "each route and each packet can be
// identified with a unique set of policy attributes", §5.2). The result is
// the system's scratch, valid until the next call. It sorts k's candidates
// in place, best first.
func (n *node) selectRoutes(k int32) []route {
	s := n.sys
	all := n.cands[k]
	slices.SortFunc(all, func(a, b route) int {
		if a.metric != b.metric {
			return cmp.Compare(a.metric, b.metric)
		}
		if a.from != b.from {
			return cmp.Compare(a.from, b.from)
		}
		return comparePaths(a.path, b.path)
	})
	sel := s.sel[:0]
	for _, r := range all {
		if len(sel) >= s.cfg.MultiRoute {
			break
		}
		if !slices.ContainsFunc(sel, r.sameAttrs) {
			sel = append(sel, r)
		}
	}
	s.sel = sel
	return sel
}

// comparePaths orders two paths as strings.Compare orders their String
// forms, without building them: byte-wise on "AD12>AD3", so AD12 sorts
// before AD3, a path sorts before its extensions ('>' sorts after every
// digit, the end of the text before everything), and "<empty>" sorts first.
// Paths render hop by hop as the hop's text and, but for the last hop, a
// '>'; those chunks are compared in turn, and the first unequal pair orders
// the texts because a chunk cannot be a proper prefix of another chunk
// unless its path ends there.
func comparePaths(a, b ad.Path) int {
	if len(a) == 0 || len(b) == 0 {
		return cmp.Compare(min(len(a), 1), min(len(b), 1))
	}
	var ta, tb [16]byte
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := bytes.Compare(hopText(ta[:0], a, i), hopText(tb[:0], b, i)); c != 0 {
			return c
		}
	}
	return 0
}

// hopText appends hop i's chunk of p's String form to dst.
func hopText(dst []byte, p ad.Path, i int) []byte {
	dst = p[i].Append(dst)
	if i < len(p)-1 {
		dst = append(dst, '>')
	}
	return dst
}

func routesEqual(a, b []route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].from != b[i].from || a[i].metric != b[i].metric ||
			!a[i].path.Equal(b[i].path) || !a[i].sameAttrs(b[i]) {
			return false
		}
	}
	return true
}

func (n *node) LinkDown(nw *sim.Network, nb ad.ID) {
	changed := n.sys.changed[:0]
	for k, rs := range n.cands {
		if kept := slices.DeleteFunc(rs, func(c route) bool { return c.from == nb }); len(kept) < len(rs) {
			n.cands[k] = kept
			changed = append(changed, int32(k))
		}
	}
	n.sys.changed = changed
	n.reselect(nw, changed)
}

func (n *node) LinkUp(nw *sim.Network, nb ad.ID) {
	// Advertise the full Adj-RIB-Out to the recovered neighbor.
	keys := n.sys.keys[:0]
	for k, c := range n.nadv {
		if c > 0 {
			keys = append(keys, int32(k))
		}
	}
	n.sys.keys = keys
	n.flushTo(nw, keys, nb)
}

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
	"cmp"
	"slices"
	"sort"
	"strings"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config parameterizes the protocol.
type Config struct {
	// Seed fixes the network RNG.
	Seed int64
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

// ribKey identifies a routing context.
type ribKey struct {
	dest ad.ID
	qos  policy.QOS
}

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
	cfg   Config
	nw    *sim.Network
	db    *policy.DB
	nodes map[ad.ID]*node

	computations int
	started      bool
	// wbuf is the encode buffer every update is marshalled into: Send
	// copies the payload, so one buffer serves the whole simulation.
	wbuf []byte
}

// New builds the system over g with policy db.
func New(g *ad.Graph, db *policy.DB, cfg Config) *System {
	cfg = cfg.Normalize()
	s := &System{
		cfg:   cfg,
		nw:    sim.NewNetwork(g, cfg.Seed),
		db:    db,
		nodes: make(map[ad.ID]*node),
	}
	for _, info := range g.ADs() {
		n := &node{
			id:    info.ID,
			info:  info,
			sys:   s,
			cands: make(map[ribKey]map[ad.ID][]route),
			adv:   make(map[ribKey][]route),
		}
		n.deriveTransit()
		s.nodes[info.ID] = n
		s.nw.AddNode(n)
	}
	return s
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
	if !s.started {
		s.started = true
		s.nw.Start()
	}
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
	k := ribKey{dest: req.Dst, qos: qos}
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
		next := ad.Invalid
		for _, r := range n.adv[k] {
			if r.sources.Contains(req.Src) && r.uci.Contains(uint8(req.UCI)) {
				next = r.from
				break
			}
		}
		if next == ad.Invalid {
			return core.Outcome{Path: path}
		}
		cur = next
		path = append(path, cur)
	}
	return core.Outcome{Path: path, Delivered: true}
}

// StateEntries implements core.System: total Adj-RIB-In candidate routes
// plus selected routes — the routing-table replication metric of E12.
func (s *System) StateEntries() int {
	total := 0
	for _, n := range s.nodes {
		for _, byNbr := range n.cands {
			for _, rs := range byNbr {
				total += len(rs)
			}
		}
		for _, rs := range n.adv {
			total += len(rs)
		}
	}
	return total
}

// Computations implements core.System.
func (s *System) Computations() int { return s.computations }

// FailLink injects a link failure.
func (s *System) FailLink(a, b ad.ID) error { return s.nw.FailLink(a, b) }

// SelectedRoutes returns the paths AD id has selected for dest at QOS 0
// (tests and reporting).
func (s *System) SelectedRoutes(id, dest ad.ID) []ad.Path {
	n, ok := s.nodes[id]
	if !ok {
		return nil
	}
	var out []ad.Path
	for _, r := range n.adv[ribKey{dest: dest, qos: 0}] {
		full := append(ad.Path{id}, r.path...)
		out = append(out, full)
	}
	return out
}

// node is one AD's IDRP process.
type node struct {
	id   ad.ID
	info ad.Info
	sys  *System

	// cands is the Adj-RIB-In: candidate routes per context per
	// neighbor.
	cands map[ribKey]map[ad.ID][]route
	// adv is the Loc-RIB/Adj-RIB-Out: the routes currently selected and
	// advertised (up to MultiRoute per context).
	adv map[ribKey][]route

	// Transit capabilities derived from local policy terms.
	transitQOS  []bool
	transitCost []uint32
	srcUnion    policy.ADSet
	uciUnion    policy.ClassSet
	destAll     bool
	destSet     map[ad.ID]bool
	hasTerms    bool

	flushPending bool
	dirty        map[ribKey]struct{}
}

func (n *node) deriveTransit() {
	q := n.sys.cfg.QOSClasses
	n.transitQOS = make([]bool, q)
	n.transitCost = make([]uint32, q)
	n.destSet = make(map[ad.ID]bool)
	n.dirty = make(map[ribKey]struct{})
	n.srcUnion = policy.SetOf()
	for _, t := range n.sys.db.Terms(n.id) {
		n.hasTerms = true
		for c := 0; c < q; c++ {
			if !t.QOS.Contains(uint8(c)) {
				continue
			}
			if !n.transitQOS[c] || t.Cost < n.transitCost[c] {
				n.transitQOS[c] = true
				n.transitCost[c] = t.Cost
			}
		}
		n.srcUnion = n.srcUnion.Union(t.Sources)
		n.uciUnion |= t.UCI
		if t.Dests.IsUniversal() {
			n.destAll = true
		} else {
			for _, d := range t.Dests.Members() {
				n.destSet[d] = true
			}
		}
	}
}

func (n *node) ID() ad.ID { return n.id }

func (n *node) Start(nw *sim.Network) {
	// Originate the self route in every QOS class.
	for q := 0; q < n.sys.cfg.QOSClasses; q++ {
		k := ribKey{dest: n.id, qos: policy.QOS(q)}
		n.adv[k] = []route{{
			path:    ad.Path{n.id},
			metric:  0,
			sources: policy.Universal(),
			uci:     policy.AllClasses,
			from:    n.id,
		}}
		n.dirty[k] = struct{}{}
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
		keys := n.takeDirty()
		n.flushTo(nw, keys, ad.Invalid)
	})
}

func (n *node) takeDirty() []ribKey {
	keys := make([]ribKey, 0, len(n.dirty))
	for k := range n.dirty {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dest != keys[j].dest {
			return keys[i].dest < keys[j].dest
		}
		return keys[i].qos < keys[j].qos
	})
	n.dirty = make(map[ribKey]struct{})
	return keys
}

// exportRoutes builds the PVRoutes n advertises for context k: the selected
// routes, with n prepended to the path, n's policy attributes intersected
// in, and the transit cost added. Empty result means withdraw.
func (n *node) exportRoutes(k ribKey) []wire.PVRoute {
	rs := n.adv[k]
	isSelf := k.dest == n.id
	out := make([]wire.PVRoute, 0, len(rs))
	for _, r := range rs {
		pv := wire.PVRoute{
			Dest:   k.dest,
			QOS:    k.qos,
			Metric: r.metric,
		}
		if isSelf {
			pv.AllowedSources = policy.Universal()
			pv.UCI = policy.AllClasses
		} else {
			// Re-advertising makes n a transit for the route: n
			// must have terms, offer the QOS, and carry the dest.
			if !n.hasTerms || !n.transitQOS[int(k.qos)] {
				continue
			}
			if !n.destAll && !n.destSet[k.dest] {
				continue
			}
			if n.sys.cfg.BGPMode {
				// BGP-1/2: no source/UCI policy attributes ride in
				// updates; routes claim universality.
				pv.AllowedSources = policy.Universal()
				pv.UCI = policy.AllClasses
			} else {
				pv.AllowedSources = r.sources.Intersect(n.srcUnion)
				pv.UCI = r.uci & n.uciUnion
				if pv.AllowedSources.Empty() || pv.UCI == 0 {
					continue
				}
			}
			pv.Metric = r.metric + n.transitCost[int(k.qos)]
		}
		pv.Path = append(append(make(ad.Path, 0, len(r.path)+1), n.id), r.path...)
		out = append(out, pv)
	}
	return out
}

// flushTo advertises the given contexts to every up neighbor (or only to
// `only`). A context with no exportable routes is sent as a withdrawal.
func (n *node) flushTo(nw *sim.Network, keys []ribKey, only ad.ID) {
	if len(keys) == 0 {
		return
	}
	exports := make([][]wire.PVRoute, len(keys))
	size := 0
	for i, k := range keys {
		exports[i] = n.exportRoutes(k)
		size += max(len(exports[i]), 1)
	}
	upd := wire.PathVector{Routes: make([]wire.PVRoute, 0, size)}
	for _, nb := range nw.UpNeighbors(n.id) {
		if only != ad.Invalid && nb != only {
			continue
		}
		upd.Routes = upd.Routes[:0]
		for i, k := range keys {
			// Receiver-side loop rejection also exists; skipping
			// routes through nb here is sender-side cleanliness.
			sentAny := false
			for _, pv := range exports[i] {
				if pv.Path.Contains(nb) {
					continue
				}
				upd.Routes = append(upd.Routes, pv)
				sentAny = true
			}
			if !sentAny {
				upd.Routes = append(upd.Routes, wire.PVRoute{
					Dest: k.dest, QOS: k.qos, Withdrawn: true,
					AllowedSources: policy.SetOf(),
				})
			}
		}
		if len(upd.Routes) > 0 {
			var err error
			if n.sys.wbuf, err = wire.AppendMessage(n.sys.wbuf[:0], &upd); err != nil {
				panic(err.Error())
			}
			nw.Send("idrp", n.id, nb, n.sys.wbuf)
		}
	}
}

func (n *node) Receive(nw *sim.Network, from ad.ID, payload []byte) {
	msg, err := wire.Unmarshal(payload)
	if err != nil {
		return
	}
	upd, ok := msg.(*wire.PathVector)
	if !ok {
		return
	}
	n.sys.computations++
	link, haveLink := nw.Graph.LinkBetween(n.id, from)
	if !haveLink {
		return
	}
	changed := make(map[ribKey]bool)
	replaced := make(map[ribKey]bool)
	for _, pv := range upd.Routes {
		if int(pv.QOS) >= n.sys.cfg.QOSClasses || pv.Dest == n.id {
			continue
		}
		k := ribKey{dest: pv.Dest, qos: pv.QOS}
		if pv.Withdrawn {
			if byNbr := n.cands[k]; byNbr != nil {
				if _, had := byNbr[from]; had {
					delete(byNbr, from)
					changed[k] = true
				}
			}
			continue
		}
		// Loop avoidance: reject routes containing ourselves (§5.2.1).
		if pv.Path.Contains(n.id) {
			continue
		}
		r := route{
			path:    pv.Path,
			metric:  pv.Metric + link.Cost,
			sources: pv.AllowedSources,
			uci:     pv.UCI,
			from:    from,
		}
		if n.cands[k] == nil {
			n.cands[k] = make(map[ad.ID][]route)
		}
		// A neighbor's full offering for one context arrives in one
		// message: the first route replaces the stored slice, later
		// ones (multi-route mode) accumulate.
		if replaced[k] {
			n.cands[k][from] = append(n.cands[k][from], r)
		} else {
			n.cands[k][from] = []route{r}
			replaced[k] = true
		}
		changed[k] = true
	}
	n.reselect(nw, changed)
}

// reselect recomputes the selected route set for each changed context and
// schedules advertisement of the differences.
func (n *node) reselect(nw *sim.Network, changed map[ribKey]bool) {
	any := false
	for k := range changed {
		if k.dest == n.id {
			continue
		}
		sel := n.selectRoutes(k)
		if !routesEqual(sel, n.adv[k]) {
			if len(sel) == 0 {
				delete(n.adv, k)
			} else {
				n.adv[k] = sel
			}
			n.dirty[k] = struct{}{}
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
// identified with a unique set of policy attributes", §5.2).
func (n *node) selectRoutes(k ribKey) []route {
	var all []route
	for _, rs := range n.cands[k] {
		all = append(all, rs...)
	}
	slices.SortFunc(all, func(a, b route) int {
		if a.metric != b.metric {
			return cmp.Compare(a.metric, b.metric)
		}
		if a.from != b.from {
			return cmp.Compare(a.from, b.from)
		}
		return strings.Compare(a.path.String(), b.path.String())
	})
	var sel []route
	for _, r := range all {
		if len(sel) >= n.sys.cfg.MultiRoute {
			break
		}
		if !slices.ContainsFunc(sel, r.sameAttrs) {
			sel = append(sel, r)
		}
	}
	return sel
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
	changed := make(map[ribKey]bool)
	for k, byNbr := range n.cands {
		if _, had := byNbr[nb]; had {
			delete(byNbr, nb)
			changed[k] = true
		}
	}
	n.reselect(nw, changed)
}

func (n *node) LinkUp(nw *sim.Network, nb ad.ID) {
	// Advertise the full Adj-RIB-Out to the recovered neighbor.
	var keys []ribKey
	for k := range n.adv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dest != keys[j].dest {
			return keys[i].dest < keys[j].dest
		}
		return keys[i].qos < keys[j].qos
	})
	n.flushTo(nw, keys, nb)
}

// Package orwg implements the Open Routing Working Group / Clark
// architecture recommended by Breslau & Estrin (SIGCOMM 1990) §5.4: link
// state flooding of topology and policy terms, source-computed policy
// routes, and a setup/handle forwarding plane.
//
// Each AD floods an LSA carrying its adjacencies and policy terms. A Route
// Server at the source searches its LSDB's view for a policy route on demand
// (§5.4.1) and emits a Setup packet carrying the full AD route and, per
// transit AD, the policy term the source claims authorizes the traversal.
// Policy Gateways validate the claim against their own local policy — not
// the flooded copy — cache the handle, and forward. Subsequent data packets
// carry only the handle; the header-length saving is measured by experiment
// E5.
//
// Per-PG handle state is managed by internal/pgstate under a configurable
// lifecycle discipline (§6): hard state released only by teardown, soft
// state kept alive by source-driven Refresh messages, or a capped LRU table.
// Each simulated PG owns one table, whose timer-wheel expiry makes an
// ExpireDue sweep cost due-handles work, not table-size work. What a PG does
// with a handle event is pgstate.Gateway's rules, the ones the serving
// stack's routeserver.DataPlane runs too; a node sends each action they
// return as a message. A PG that no longer holds state for an arriving data
// or refresh packet NAKs with SetupNoState; the NAK walks back to the
// source, which queues the flow for re-establishment (RepairAll). Link
// failures trigger the same repair path eagerly: the failed link's
// endpoints flush crossing entries, NAK upstream, and tear down downstream.
package orwg

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/metrics"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// Config parameterizes the system.
type Config struct {
	// State selects each policy gateway's handle lifecycle discipline —
	// the PG state-management issue of §6. The zero value is hard state.
	State pgstate.Config
}

// dataPayload is the payload size in bytes of Route's verification packet.
const dataPayload = 64

// SetupResult reports one route establishment.
type SetupResult struct {
	Handle   uint64
	Path     ad.Path
	OK       bool
	FailCode uint8
	FailedAt ad.ID
	// RTT is the simulated time from setup emission to the reply.
	RTT sim.Time
	// Messages is the number of protocol messages the setup consumed.
	Messages uint64
	// SynthesisExpansions is the route-server search work.
	SynthesisExpansions int
}

// CacheStats aggregates policy-gateway handle-cache behaviour.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// RepairSummary reports one RepairAll pass.
type RepairSummary struct {
	// Attempted counts flows pulled off repair queues.
	Attempted int
	// Repaired counts flows successfully re-established (possibly over a
	// different route, always under a fresh handle).
	Repaired int
}

// System is an ORWG deployment.
type System struct {
	cfg Config
	nw  *sim.Network
	db  *policy.DB
	// nodes holds each AD's node at the AD's position in ids, so ranging
	// over it sweeps the ADs in ascending order.
	ids   []ad.ID
	nodes []*node

	// resetup records the setup RTT of each successful failure repair.
	resetup metrics.Histogram

	// rx holds what Receive decodes into, one value per handle-plane
	// message type, reused message to message: a handler keeps no part of
	// its message but a setup's route, which it copies.
	rx struct {
		setup    wire.Setup
		reply    wire.SetupReply
		data     wire.Data
		teardown wire.Teardown
		refresh  wire.Refresh
	}
	// refresh is the keepalive RefreshEstablished sends, reused flow to
	// flow: SendMessage encodes it at send time.
	refresh wire.Refresh
}

// New builds the system over g with policy db. It panics on an invalid
// State config: that is a programming error, not a runtime condition.
func New(g *ad.Graph, db *policy.DB, cfg Config) *System {
	st, err := cfg.State.Normalize()
	if err != nil {
		panic(fmt.Sprintf("orwg: %v", err))
	}
	cfg.State = st
	ids := g.IDs()
	s := &System{
		cfg:   cfg,
		nw:    sim.NewNetwork(g),
		db:    db,
		ids:   ids,
		nodes: make([]*node, len(ids)),
	}
	lsas := flood.NewTable(ids)
	for p, id := range ids {
		n := &node{
			id:        id,
			sys:       s,
			flooder:   flood.NewFlooder(id, lsas),
			table:     pgstate.NewTable(cfg.State),
			flows:     make(map[uint64]flow),
			repair:    make(map[uint64]policy.Request),
			delivered: make(map[uint64]int),
		}
		n.flooder.OnChange = n.onLSDBChange
		s.nodes[p] = n
		s.nw.AddNode(n)
	}
	return s
}

// Name implements core.System.
func (s *System) Name() string { return "orwg" }

// Network implements core.System.
func (s *System) Network() *sim.Network { return s.nw }

// Converge implements core.System: floods all LSAs to quiescence.
func (s *System) Converge(limit sim.Time) (sim.Time, bool) {
	return s.nw.RunToQuiescence(limit)
}

// node returns id's node, or nil when the graph has no such AD.
func (s *System) node(id ad.ID) *node {
	if p := ad.Position(s.ids, id); p >= 0 {
		return s.nodes[p]
	}
	return nil
}

// ttlMillis is the lifetime sources request in Setup and Refresh packets:
// the configured TTL under soft state, 0 (PG default) otherwise.
func (s *System) ttlMillis() uint32 {
	if s.cfg.State.Kind == pgstate.Soft {
		return uint32(s.cfg.State.TTL / sim.Millisecond)
	}
	return 0
}

// Establish synthesizes and sets up a policy route for req, running the
// simulation through the full setup exchange.
func (s *System) Establish(req policy.Request) SetupResult {
	src := s.node(req.Src)
	if src == nil {
		return SetupResult{}
	}
	msgs0 := s.nw.Stats.MessagesSent
	path, keys, expansions, found := src.synthesize(req)
	res := SetupResult{SynthesisExpansions: expansions}
	if !found {
		return res
	}
	res.Path = path
	if len(path) == 1 {
		// Traffic to self needs no setup.
		res.OK = true
		return res
	}
	handle := src.newHandle()
	res.Handle = handle
	t0 := s.nw.Now()
	src.startSetup(s.nw, handle, req, path, keys)
	s.nw.Engine.Run()
	res.Messages = s.nw.Stats.MessagesSent - msgs0
	res.RTT = s.nw.Now() - t0
	if f, ok := src.flows[handle]; ok {
		res.OK = true
		res.Path = f.route
	} else {
		res.FailCode = src.lastFailCode
		res.FailedAt = src.lastFailedAt
	}
	return res
}

// SendData sends one data packet down an established handle and runs the
// simulation until it is delivered or dropped. It returns whether the
// destination received it and the packet's routing-header length.
func (s *System) SendData(srcID ad.ID, handle uint64, payload int) (delivered bool, headerBytes int) {
	src := s.node(srcID)
	if src == nil {
		return false, 0
	}
	path := src.flows[handle].route
	if len(path) < 2 {
		return false, 0
	}
	pkt := &wire.Data{
		Handle:  handle,
		Mode:    wire.ModeHandle,
		Payload: make([]byte, payload),
	}
	headerBytes = pkt.HeaderLen()
	dest := s.node(path.Dest())
	before := dest.delivered[handle]
	s.nw.SendMessage(srcID, path[1], pkt)
	s.nw.Engine.Run()
	return dest.delivered[handle] > before, headerBytes
}

// Abandon makes the source forget an established flow without tearing it
// down — the crashed-source / silent-departure model of §6. Downstream
// handle state is orphaned: soft state expires it, capped state evicts it,
// hard state leaks it until an explicit teardown that will never come.
func (s *System) Abandon(srcID ad.ID, handle uint64) {
	src := s.node(srcID)
	if src == nil {
		return
	}
	delete(src.flows, handle)
	src.table.Remove(handle)
}

// Advance moves simulated time forward by d with no protocol activity and
// then sweeps every PG table for expired soft state. Experiments use it to
// model idle periods between traffic waves.
func (s *System) Advance(d sim.Time) {
	s.nw.After(d, func() {})
	s.nw.Engine.Run()
	s.expireAll()
}

// expireAll sweeps each PG's table in AD order. An expired entry at a
// flow's source also kills the flow: the source stopped refreshing, so the
// flow is abandoned, not repaired.
func (s *System) expireAll() {
	now := s.nw.Now()
	for _, n := range s.nodes {
		for _, a := range n.gw().OnExpire(now, nil) {
			n.act(s.nw, a, nil)
		}
	}
}

// RefreshEstablished makes every source re-assert its live flows: the
// local table entry is touched and a Refresh packet walks the route
// extending each PG's entry (§6 soft state). A PG that already dropped the
// state NAKs with SetupNoState, which queues the flow for repair. The pump
// is driven explicitly by the caller — the engine runs to quiescence, so a
// self-rescheduling timer would never terminate.
func (s *System) RefreshEstablished() {
	ttl := s.ttlMillis()
	ttlSim := sim.Time(ttl) * sim.Millisecond
	var handles []uint64
	for _, n := range s.nodes {
		handles = handles[:0]
		for h := range n.flows {
			handles = append(handles, h)
		}
		slices.Sort(handles)
		for _, h := range handles {
			path := n.flows[h].route
			if len(path) < 2 {
				continue
			}
			n.table.Refresh(s.nw.Now(), h, ttlSim)
			s.refresh = wire.Refresh{Handle: h, TTLMillis: ttl}
			s.nw.SendMessage(n.id, path[1], &s.refresh)
		}
	}
	s.nw.Engine.Run()
	s.expireAll()
}

// RepairAll re-establishes every flow queued for repair after a NAK or
// link failure, in AD then handle order. Each successful repair gets a
// fresh handle (and possibly a different route) and its setup RTT is
// recorded in the re-setup latency histogram.
func (s *System) RepairAll() RepairSummary {
	var sum RepairSummary
	for _, n := range s.nodes {
		if len(n.repair) == 0 {
			continue
		}
		handles := make([]uint64, 0, len(n.repair))
		for h := range n.repair {
			handles = append(handles, h)
		}
		sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
		for _, h := range handles {
			req := n.repair[h]
			delete(n.repair, h)
			sum.Attempted++
			res := s.Establish(req)
			if res.OK {
				sum.Repaired++
				s.resetup.Observe(time.Duration(res.RTT) * time.Microsecond)
			}
		}
	}
	return sum
}

// PendingRepairs counts flows waiting for RepairAll.
func (s *System) PendingRepairs() int {
	total := 0
	for _, n := range s.nodes {
		total += len(n.repair)
	}
	return total
}

// ResetupLatency summarizes the setup RTTs of successful failure repairs.
func (s *System) ResetupLatency() metrics.LatencySummary {
	return s.resetup.Snapshot()
}

// Route implements core.System: establish a policy route, then verify it by
// forwarding an actual data packet over the handle plane.
func (s *System) Route(req policy.Request) core.Outcome {
	res := s.Establish(req)
	if !res.OK {
		return core.Outcome{Path: res.Path, SetupMessages: int(res.Messages)}
	}
	if len(res.Path) == 1 {
		return core.Outcome{Path: res.Path, Delivered: true}
	}
	delivered, _ := s.SendData(req.Src, res.Handle, dataPayload)
	return core.Outcome{
		Path:          res.Path,
		Delivered:     delivered,
		SetupMessages: int(res.Messages),
	}
}

// StateEntries implements core.System: LSDB entries plus resident handles —
// the policy-gateway state of §6.
func (s *System) StateEntries() int {
	total := 0
	for _, n := range s.nodes {
		total += n.flooder.DB.Len()
		total += n.table.Len()
	}
	return total
}

// Computations implements core.System: total route-server search
// expansions.
func (s *System) Computations() int {
	total := 0
	for _, n := range s.nodes {
		total += n.expansions
	}
	return total
}

// CacheStats aggregates every PG's handle-table counters.
func (s *System) CacheStats() CacheStats {
	var cs CacheStats
	for _, n := range s.nodes {
		st := n.table.Stats()
		cs.Hits += st.Hits
		cs.Misses += st.Misses
		cs.Evictions += st.Evictions
		cs.Entries += n.table.Len()
	}
	return cs
}

// StateMetrics returns the handle-table counters summed over every PG and
// the largest single-PG peak — the per-gateway memory high-water mark that
// distinguishes the §6 disciplines.
func (s *System) StateMetrics() (total pgstate.Stats, maxPeak int) {
	for _, n := range s.nodes {
		st := n.table.Stats()
		total.Add(st)
		if st.Peak > maxPeak {
			maxPeak = st.Peak
		}
	}
	return total, maxPeak
}

// LSDBBytes returns the marshalled size of one AD's LSDB (they converge to
// the same contents), the policy-distribution memory metric of E8.
func (s *System) LSDBBytes() int {
	for _, n := range s.nodes {
		return n.flooder.DB.WireBytes()
	}
	return 0
}

// FailLink injects a link failure and runs the resulting repair traffic
// (upstream NAKs, downstream repair teardowns, LSA re-floods) to
// quiescence.
func (s *System) FailLink(a, b ad.ID) error {
	if err := s.nw.FailLink(a, b); err != nil {
		return err
	}
	s.nw.Engine.Run()
	return nil
}

// UpdatePolicy replaces an AD's policy terms at runtime: the AD re-floods
// its LSA with the new terms, and its policy gateway re-validates every
// cached policy route, tearing down routes the new policy no longer permits
// (a SetupReply NAK propagates back so the source drops the route and can
// re-synthesize). This exercises §5.4.1's operating assumption — "policy
// and topology change much more slowly than the time required for route
// setup" — when policy does change.
func (s *System) UpdatePolicy(id ad.ID, terms []policy.Term) error {
	n := s.node(id)
	if n == nil {
		return fmt.Errorf("orwg: unknown AD %v", id)
	}
	// Install the new terms in the ground-truth database by replacing
	// the AD's term set.
	s.db = s.db.WithTerms(id, terms)
	// Re-flood and re-validate.
	n.flooder.Originate(s.nw, s.db.Terms(id))
	for _, a := range n.gw().OnPolicy(s.nw.Now(), s.db.Terms(id), nil) {
		n.act(s.nw, a, nil)
	}
	s.nw.Engine.Run()
	return nil
}

// PolicyDB exposes the current ground-truth policy database.
func (s *System) PolicyDB() *policy.DB { return s.db }

// node is one AD's ORWG process: flooder, route server, and policy gateway.
type node struct {
	id      ad.ID
	sys     *System
	flooder *flood.Flooder

	// Route server state: the LSDB's view (shared with every AD of the
	// system in the same LSDB state), taken on the first search after a
	// change and nil until then; own, the view plus this AD's criteria,
	// which its searches read; and the search work done on it.
	view       *flood.View
	own        *synthesis.Snapshot
	expansions int

	// Policy gateway state: the per-handle table under the configured
	// lifecycle discipline.
	table *pgstate.Table

	// Source state. flows holds the flows this AD established, by handle;
	// a flow survives table eviction so a NAKed flow can be queued in
	// repair for re-establishment.
	handleSeq    uint32
	flows        map[uint64]flow
	repair       map[uint64]policy.Request
	lastFailCode uint8
	lastFailedAt ad.ID

	// Destination state: packets delivered per handle.
	delivered map[uint64]int
}

// flow is one flow an AD sourced: its route and the request it was set up
// for.
type flow struct {
	route ad.Path
	req   policy.Request
}

func (n *node) ID() ad.ID { return n.id }

func (n *node) Start(nw *sim.Network) {
	n.flooder.Originate(nw, n.sys.db.Terms(n.id))
}

func (n *node) onLSDBChange(nw *sim.Network) {
	n.view, n.own = nil, nil
}

func (n *node) refreshView() {
	if n.view == nil {
		n.view = n.flooder.DB.View()
		n.own = n.view.Own(n.id, n.sys.db.CriteriaFor(n.id))
	}
}

// synthesize runs the route server: search the view for a policy route and
// find the claimed term key for each transit AD.
func (n *node) synthesize(req policy.Request) (ad.Path, []policy.Key, int, bool) {
	n.refreshView()
	res := n.own.FindRoute(req)
	n.expansions += res.Expanded
	if !res.Found {
		return nil, nil, res.Expanded, false
	}
	path := res.Path
	var keys []policy.Key
	for i := 1; i < len(path)-1; i++ {
		t, ok := n.view.Policy.PermitsTransit(path[i], req, path[i-1], path[i+1])
		if !ok {
			// The search returned a path the view cannot justify;
			// treat as synthesis failure.
			return nil, nil, res.Expanded, false
		}
		keys = append(keys, t.Key())
	}
	return path, keys, res.Expanded, true
}

func (n *node) newHandle() uint64 {
	n.handleSeq++
	return uint64(n.id)<<32 | uint64(n.handleSeq)
}

// startSetup installs the source's own entry and emits the setup packet.
func (n *node) startSetup(nw *sim.Network, handle uint64, req policy.Request, route ad.Path, keys []policy.Key) {
	ttl := n.sys.ttlMillis()
	n.install(nw, handle, route, 0, req, ttl)
	msg := &wire.Setup{Handle: handle, Req: req, Route: route, TermKeys: keys, TTLMillis: ttl}
	nw.SendMessage(n.id, route[1], msg)
}

// install adds a handle entry under the configured discipline, honouring
// the setup packet's requested TTL.
func (n *node) install(nw *sim.Network, handle uint64, route ad.Path, idx int, req policy.Request, ttlMillis uint32) {
	n.table.Install(nw.Now(), handle, route, idx, req, sim.Time(ttlMillis)*sim.Millisecond)
}

func (n *node) Receive(nw *sim.Network, from ad.ID, payload []byte) {
	if n.flooder.Receive(nw, from, payload) {
		return
	}
	msg := n.sys.decodeTarget(payload)
	if msg == nil || wire.UnmarshalInto(payload, msg) != nil {
		return
	}
	switch m := msg.(type) {
	case *wire.Setup:
		n.handleSetup(nw, from, m)
	case *wire.SetupReply:
		n.handleSetupReply(nw, from, m)
	case *wire.Data:
		n.handleData(nw, from, m)
	case *wire.Teardown:
		n.handleTeardown(nw, from, m)
	case *wire.Refresh:
		n.handleRefresh(nw, from, m)
	}
}

// decodeTarget returns the value of s.rx a frame of payload's type decodes
// into, or nil for a frame too short to name a type or of a type the handle
// plane does not carry. A frame's type is its second byte, after the
// version.
func (s *System) decodeTarget(payload []byte) wire.Message {
	if len(payload) < 2 {
		return nil
	}
	switch wire.MsgType(payload[1]) {
	case wire.TypeSetup:
		return &s.rx.setup
	case wire.TypeSetupReply:
		return &s.rx.reply
	case wire.TypeData:
		return &s.rx.data
	case wire.TypeTeardown:
		return &s.rx.teardown
	case wire.TypeRefresh:
		return &s.rx.refresh
	}
	return nil
}

// indexOn returns this AD's position on route, or -1.
func (n *node) indexOn(route ad.Path) int {
	for i, id := range route {
		if id == n.id {
			return i
		}
	}
	return -1
}

// handleSetup validates a route setup at a policy gateway (paper §5.4.1):
// the claimed policy term must exist locally and permit the traversal.
func (n *node) handleSetup(nw *sim.Network, from ad.ID, m *wire.Setup) {
	idx := n.indexOn(m.Route)
	reject := func(code uint8) {
		nw.SendMessage(n.id, from, &wire.SetupReply{
			Handle: m.Handle, Code: code, FailedAt: n.id,
		})
	}
	if idx <= 0 || !m.Route.LoopFree() || m.Route.Dest() != m.Req.Dst || m.Route.Source() != m.Req.Src {
		reject(wire.SetupBadRoute)
		return
	}
	if m.Route[idx-1] != from {
		reject(wire.SetupBadRoute)
		return
	}
	if idx == len(m.Route)-1 {
		// Destination PG: accept, install for the data plane, reply OK.
		n.install(nw, m.Handle, slices.Clone(m.Route), idx, m.Req, m.TTLMillis)
		nw.SendMessage(n.id, from, &wire.SetupReply{
			Handle: m.Handle, Code: wire.SetupOK,
		})
		return
	}
	// Transit PG: validate the claimed term against LOCAL policy.
	var claimed *policy.Term
	for _, k := range m.TermKeys {
		if k.Advertiser != n.id {
			continue
		}
		terms := n.sys.db.Terms(n.id)
		for i := range terms {
			if terms[i].Serial == k.Serial {
				claimed = &terms[i]
				break
			}
		}
		break
	}
	next := m.Route[idx+1]
	if claimed == nil || !claimed.Permits(m.Req, m.Route[idx-1], next) {
		reject(wire.SetupNoPolicy)
		return
	}
	if !nw.LinkIsUp(n.id, next) {
		reject(wire.SetupNoLink)
		return
	}
	n.install(nw, m.Handle, slices.Clone(m.Route), idx, m.Req, m.TTLMillis)
	nw.SendMessage(n.id, next, m)
}

// gw is this AD's policy gateway as pgstate's rules see it.
func (n *node) gw() pgstate.Gateway { return pgstate.Gateway{ID: n.id, Table: n.table} }

// act carries out one gateway action as the simulated network's messages;
// m is the message whose rule returned it, which a Forward passes on.
func (n *node) act(nw *sim.Network, a pgstate.Action, m wire.Message) {
	switch a.Op {
	case pgstate.Forward:
		nw.SendMessage(n.id, a.To, m)
	case pgstate.Deliver:
		n.delivered[a.Handle]++
	case pgstate.NAK:
		nw.SendMessage(n.id, a.To, &wire.SetupReply{Handle: a.Handle, Code: a.Code, FailedAt: a.At})
	case pgstate.Teardown:
		nw.SendMessage(n.id, a.To, &wire.Teardown{Handle: a.Handle, Reason: wire.TeardownRepair})
	case pgstate.Fail:
		// The NAK resolves here: a pending setup learns why it failed, and
		// a live flow this AD sourced dies and is queued for RepairAll.
		n.lastFailCode, n.lastFailedAt = a.Code, a.At
		if f, isFlow := n.flows[a.Handle]; isFlow {
			delete(n.flows, a.Handle)
			n.repair[a.Handle] = f.req
		}
	case pgstate.Expire:
		delete(n.flows, a.Handle)
	}
}

// handleSetupReply propagates a reply backward along the installed route.
// A success resolves the pending setup at the source; a failure is a NAK,
// which drops the handle state on its way.
func (n *node) handleSetupReply(nw *sim.Network, from ad.ID, m *wire.SetupReply) {
	if !m.OK() {
		n.act(nw, n.gw().OnNAK(nw.Now(), m.Handle, m.Code, m.FailedAt), m)
		return
	}
	e, ok := n.table.Peek(nw.Now(), m.Handle)
	switch {
	case !ok:
		// No PG state left for the handle (evicted or expired): the reply
		// dies here.
	case e.Idx == 0:
		n.flows[m.Handle] = flow{e.Route, e.Req}
	default:
		nw.SendMessage(n.id, e.Route[e.Idx-1], m)
	}
}

// handleData forwards a handle-mode data packet along the installed route.
func (n *node) handleData(nw *sim.Network, from ad.ID, m *wire.Data) {
	if m.Mode != wire.ModeHandle {
		return // source-route data packets are the filter baseline's plane
	}
	n.act(nw, n.gw().OnData(nw.Now(), from, m.Handle), m)
}

// handleRefresh extends a handle's lifetime (§6 soft state) and forwards
// the keepalive downstream.
func (n *node) handleRefresh(nw *sim.Network, from ad.ID, m *wire.Refresh) {
	n.act(nw, n.gw().OnRefresh(nw.Now(), from, m.Handle, sim.Time(m.TTLMillis)*sim.Millisecond), m)
}

// handleTeardown releases handle state along the route, for both explicit
// releases and failure-driven repair invalidations.
func (n *node) handleTeardown(nw *sim.Network, from ad.ID, m *wire.Teardown) {
	n.act(nw, n.gw().OnTeardown(nw.Now(), m.Handle), m)
}

// LinkDown is the failure-driven repair path (§6): this endpoint flushes
// every handle whose route crossed the dead adjacency, NAKs upstream and
// tears down downstream.
func (n *node) LinkDown(nw *sim.Network, nb ad.ID) {
	n.flooder.Originate(nw, n.sys.db.Terms(n.id))
	for _, a := range n.gw().OnLinkDown(nw.Now(), nb, nil) {
		n.act(nw, a, nil)
	}
}

func (n *node) LinkUp(nw *sim.Network, nb ad.ID) {
	n.flooder.Originate(nw, n.sys.db.Terms(n.id))
}

// String aids debugging.
func (n *node) String() string { return fmt.Sprintf("orwg-node(%v)", n.id) }

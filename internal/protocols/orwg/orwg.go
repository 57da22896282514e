// Package orwg implements the Open Routing Working Group / Clark
// architecture recommended by Breslau & Estrin (SIGCOMM 1990) §5.4: link
// state flooding of topology and policy terms, source-computed policy
// routes, and a setup/handle forwarding plane.
//
// Each AD floods an LSA carrying its adjacencies and policy terms. A Route
// Server at the source synthesizes a policy route (via a configurable
// precomputation/on-demand strategy, §5.4.1) and emits a Setup packet
// carrying the full AD route and, per transit AD, the policy term the
// source claims authorizes the traversal. Policy Gateways validate the
// claim against their own local policy — not the flooded copy — cache the
// handle, and forward. Subsequent data packets carry only the handle;
// the header-length saving is measured by experiment E5.
//
// Per-PG handle state is managed by internal/pgstate under a configurable
// lifecycle discipline (§6): hard state released only by teardown, soft
// state kept alive by source-driven Refresh messages, or a capped LRU
// table. Each simulated PG runs its table with a single shard (nodes are
// single-threaded; Config.Normalize pins State.Shards to 1 unless
// overridden) while still getting the timer-wheel expiry, so ExpireDue
// sweeps cost due-handles work, not table-size work. A PG that no longer holds state for an arriving data or refresh
// packet NAKs with SetupNoState; the NAK walks back to the source, which
// queues the flow for re-establishment (RepairAll). Link failures trigger
// the same repair path eagerly: the failed link's endpoints flush crossing
// entries, NAK upstream, and tear down downstream.
package orwg

import (
	"fmt"
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

// StrategyKind selects the route server's synthesis strategy.
type StrategyKind string

// Available strategies (experiment E7).
const (
	OnDemand    StrategyKind = "on-demand"
	Precomputed StrategyKind = "precomputed"
	Hybrid      StrategyKind = "hybrid"
)

// Config parameterizes the system.
type Config struct {
	// Seed fixes the network RNG.
	Seed int64
	// Strategy is the route-server synthesis strategy.
	Strategy StrategyKind
	// HotRequests seeds the precomputed/hybrid strategies.
	HotRequests []policy.Request
	// CacheCapacity is the legacy capped-cache knob: a positive value is
	// shorthand for State{Kind: Capped, Capacity: CacheCapacity}. Ignored
	// when State.Kind is set explicitly.
	CacheCapacity int
	// State selects each policy gateway's handle lifecycle discipline —
	// the PG state-management issue of §6. The zero value is hard state.
	State pgstate.Config
}

// dataPayload is the payload size in bytes of Route's verification packet.
const dataPayload = 64

// Normalize fills defaults. It panics on an invalid State config: that is
// a programming error, not a runtime condition.
func (c Config) Normalize() Config {
	if c.Strategy == "" {
		c.Strategy = OnDemand
	}
	if c.State.Kind == "" && c.CacheCapacity > 0 {
		c.State = pgstate.Config{Kind: pgstate.Capped, Capacity: c.CacheCapacity}
	}
	if c.State.Shards == 0 {
		// Simulator nodes are single-threaded and number in the hundreds:
		// one shard per PG table unless the caller asks for more (the
		// sharded serving-layer default would multiply per-node footprint
		// for concurrency no simulated PG needs).
		c.State.Shards = 1
	}
	st, err := c.State.Normalize()
	if err != nil {
		panic(fmt.Sprintf("orwg: %v", err))
	}
	c.State = st
	return c
}

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
	cfg   Config
	nw    *sim.Network
	db    *policy.DB
	nodes map[ad.ID]*node

	// resetup records the setup RTT of each successful failure repair.
	resetup metrics.Histogram
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
	for _, id := range g.IDs() {
		n := &node{
			id:          id,
			sys:         s,
			flooder:     flood.NewFlooder(id, "lsa"),
			table:       pgstate.NewTable(cfg.State),
			established: make(map[uint64]ad.Path),
			flows:       make(map[uint64]policy.Request),
			repair:      make(map[uint64]policy.Request),
			delivered:   make(map[uint64]int),
		}
		n.flooder.OnChange = n.onLSDBChange
		s.nodes[id] = n
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

// sortedIDs returns the ADs in ascending order, the deterministic sweep
// order for every whole-system operation.
func (s *System) sortedIDs() []ad.ID {
	ids := make([]ad.ID, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
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
	src, ok := s.nodes[req.Src]
	if !ok {
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
	if est, ok := src.established[handle]; ok {
		res.OK = true
		res.Path = est
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
	src, ok := s.nodes[srcID]
	if !ok {
		return false, 0
	}
	path, ok := src.established[handle]
	if !ok || len(path) < 2 {
		return false, 0
	}
	pkt := &wire.Data{
		Handle:  handle,
		Mode:    wire.ModeHandle,
		Payload: make([]byte, payload),
	}
	headerBytes = pkt.HeaderLen()
	dest := s.nodes[path.Dest()]
	before := dest.delivered[handle]
	s.nw.SendMessage("data", srcID, path[1], pkt)
	s.nw.Engine.Run()
	return dest.delivered[handle] > before, headerBytes
}

// Abandon makes the source forget an established flow without tearing it
// down — the crashed-source / silent-departure model of §6. Downstream
// handle state is orphaned: soft state expires it, capped state evicts it,
// hard state leaks it until an explicit teardown that will never come.
func (s *System) Abandon(srcID ad.ID, handle uint64) {
	src, ok := s.nodes[srcID]
	if !ok {
		return
	}
	delete(src.established, handle)
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
	for _, id := range s.sortedIDs() {
		n := s.nodes[id]
		for _, h := range n.table.ExpireDue(now) {
			delete(n.established, h)
			delete(n.flows, h)
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
	for _, id := range s.sortedIDs() {
		n := s.nodes[id]
		handles := make([]uint64, 0, len(n.established))
		for h := range n.established {
			handles = append(handles, h)
		}
		sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
		for _, h := range handles {
			path := n.established[h]
			if len(path) < 2 {
				continue
			}
			n.table.Refresh(s.nw.Now(), h, ttlSim)
			s.nw.SendMessage("refresh", n.id, path[1], &wire.Refresh{
				Handle: h, TTLMillis: ttl,
			})
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
	for _, id := range s.sortedIDs() {
		n := s.nodes[id]
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
		if n.strategy != nil {
			st := n.strategy.Stats()
			total += st.PrecomputeExpansions + st.OnDemandExpansions
		}
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
	n, ok := s.nodes[id]
	if !ok {
		return fmt.Errorf("orwg: unknown AD %v", id)
	}
	// Install the new terms in the ground-truth database by replacing
	// the AD's term set.
	s.db = s.db.WithTerms(id, terms)
	// Re-flood and re-validate.
	n.flooder.Originate(s.nw, s.db.Terms(id))
	n.revalidateCache(s.nw)
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

	// Route server state.
	view      *ad.Graph
	viewDB    *policy.DB
	viewDirty bool
	strategy  synthesis.Strategy

	// Policy gateway state: the per-handle table under the configured
	// lifecycle discipline.
	table *pgstate.Table

	// Source state. flows mirrors established with the originating
	// request; it survives table eviction so a NAKed flow can be queued
	// in repair for re-establishment.
	handleSeq    uint32
	established  map[uint64]ad.Path
	flows        map[uint64]policy.Request
	repair       map[uint64]policy.Request
	lastFailCode uint8
	lastFailedAt ad.ID

	// Destination state: packets delivered per handle.
	delivered map[uint64]int
}

func (n *node) ID() ad.ID { return n.id }

func (n *node) Start(nw *sim.Network) {
	n.flooder.Originate(nw, n.sys.db.Terms(n.id))
}

func (n *node) onLSDBChange(nw *sim.Network) {
	n.viewDirty = true
}

func (n *node) refreshView() {
	if n.view != nil && !n.viewDirty {
		return
	}
	n.view = n.flooder.DB.Graph()
	n.viewDB = n.flooder.DB.PolicyDB()
	n.viewDB.SetCriteria(n.id, n.sys.db.CriteriaFor(n.id))
	n.viewDirty = false
	if n.strategy != nil {
		n.strategy = n.buildStrategy()
	}
}

func (n *node) buildStrategy() synthesis.Strategy {
	switch n.sys.cfg.Strategy {
	case Precomputed:
		return synthesis.NewPrecomputed(n.view, n.viewDB, n.hotRequests())
	case Hybrid:
		return synthesis.NewHybrid(n.view, n.viewDB, n.hotRequests())
	default:
		return synthesis.NewOnDemand(n.view, n.viewDB)
	}
}

// hotRequests filters the configured hot set to requests sourced here.
func (n *node) hotRequests() []policy.Request {
	var out []policy.Request
	for _, r := range n.sys.cfg.HotRequests {
		if r.Src == n.id {
			out = append(out, r)
		}
	}
	return out
}

// synthesize runs the route server: compute a policy route and the claimed
// term key for each transit AD.
func (n *node) synthesize(req policy.Request) (ad.Path, []policy.Key, int, bool) {
	n.refreshView()
	if n.strategy == nil {
		n.strategy = n.buildStrategy()
	}
	st0 := n.strategy.Stats()
	path, ok := n.strategy.Route(req)
	st1 := n.strategy.Stats()
	expansions := (st1.PrecomputeExpansions + st1.OnDemandExpansions) -
		(st0.PrecomputeExpansions + st0.OnDemandExpansions)
	if !ok {
		return nil, nil, expansions, false
	}
	var keys []policy.Key
	for i := 1; i < len(path)-1; i++ {
		t, ok := n.viewDB.PermitsTransit(path[i], req, path[i-1], path[i+1])
		if !ok {
			// The strategy returned a path the view cannot justify;
			// treat as synthesis failure.
			return nil, nil, expansions, false
		}
		keys = append(keys, t.Key())
	}
	return path, keys, expansions, true
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
	nw.SendMessage("setup", n.id, route[1], msg)
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
	msg, err := wire.Unmarshal(payload)
	if err != nil {
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
		nw.SendMessage("setup-reply", n.id, from, &wire.SetupReply{
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
		n.install(nw, m.Handle, m.Route, idx, m.Req, m.TTLMillis)
		nw.SendMessage("setup-reply", n.id, from, &wire.SetupReply{
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
	n.install(nw, m.Handle, m.Route, idx, m.Req, m.TTLMillis)
	nw.SendMessage("setup", n.id, next, m)
}

// failFlow resolves a NAK at the flow's source: the flow dies and is
// queued for re-establishment by RepairAll.
func (n *node) failFlow(h uint64, req policy.Request, code uint8, failedAt ad.ID) {
	n.lastFailCode = code
	n.lastFailedAt = failedAt
	delete(n.established, h)
	delete(n.flows, h)
	n.repair[h] = req
}

// handleSetupReply propagates a reply backward along the installed route,
// dropping the handle state on failure.
func (n *node) handleSetupReply(nw *sim.Network, from ad.ID, m *wire.SetupReply) {
	e, ok := n.table.Peek(nw.Now(), m.Handle)
	if !ok {
		// No PG state left for the handle (evicted or expired). If this
		// node sourced the flow it still resolves the NAK; otherwise the
		// reply dies here and any state further upstream ages out under
		// its own discipline.
		if req, isSource := n.flows[m.Handle]; isSource && !m.OK() {
			n.failFlow(m.Handle, req, m.Code, m.FailedAt)
		}
		return
	}
	if !m.OK() {
		n.table.Remove(m.Handle)
	}
	if e.Idx == 0 {
		// Source: resolve the pending setup or kill the live flow.
		if m.OK() {
			n.established[m.Handle] = e.Route
			n.flows[m.Handle] = e.Req
			return
		}
		n.lastFailCode = m.Code
		n.lastFailedAt = m.FailedAt
		if req, isFlow := n.flows[m.Handle]; isFlow {
			n.failFlow(m.Handle, req, m.Code, m.FailedAt)
		}
		return
	}
	nw.SendMessage("setup-reply", n.id, e.Route[e.Idx-1], m)
}

// handleData forwards a handle-mode data packet along the installed route
// with per-packet validation (is it arriving from the cached previous AD?).
// A miss NAKs SetupNoState back toward the source (§6): evicted or expired
// state is re-established on demand rather than silently blackholing.
func (n *node) handleData(nw *sim.Network, from ad.ID, m *wire.Data) {
	if m.Mode != wire.ModeHandle {
		return // source-route data packets are the filter baseline's plane
	}
	e, ok := n.table.Lookup(nw.Now(), m.Handle)
	if !ok {
		nw.SendMessage("setup-reply", n.id, from, &wire.SetupReply{
			Handle: m.Handle, Code: wire.SetupNoState, FailedAt: n.id,
		})
		return
	}
	if e.Idx > 0 && e.Route[e.Idx-1] != from {
		return // per-packet validation failure (§5.4.1)
	}
	if e.Idx == len(e.Route)-1 {
		n.delivered[m.Handle]++
		return
	}
	nw.SendMessage("data", n.id, e.Route[e.Idx+1], m)
}

// handleRefresh extends a handle's lifetime (§6 soft state) and forwards
// the keepalive downstream. A PG that no longer holds the state NAKs so
// the source learns the route decayed.
func (n *node) handleRefresh(nw *sim.Network, from ad.ID, m *wire.Refresh) {
	now := nw.Now()
	if !n.table.Refresh(now, m.Handle, sim.Time(m.TTLMillis)*sim.Millisecond) {
		nw.SendMessage("setup-reply", n.id, from, &wire.SetupReply{
			Handle: m.Handle, Code: wire.SetupNoState, FailedAt: n.id,
		})
		return
	}
	e, ok := n.table.Peek(now, m.Handle)
	if !ok {
		return
	}
	if e.Idx > 0 && e.Route[e.Idx-1] != from {
		return
	}
	if e.Idx < len(e.Route)-1 {
		nw.SendMessage("refresh", n.id, e.Route[e.Idx+1], m)
	}
}

// handleTeardown releases handle state along the route, for both explicit
// releases and failure-driven repair invalidations.
func (n *node) handleTeardown(nw *sim.Network, from ad.ID, m *wire.Teardown) {
	e, ok := n.table.Peek(nw.Now(), m.Handle)
	if !ok {
		return
	}
	n.table.Remove(m.Handle)
	if e.Idx < len(e.Route)-1 {
		nw.SendMessage("teardown", n.id, e.Route[e.Idx+1], m)
	}
}

// revalidateCache re-checks every installed policy route against this AD's
// current local policy, tearing down routes that are no longer permitted.
// Handles are processed in sorted order for determinism.
func (n *node) revalidateCache(nw *sim.Network) {
	for _, h := range n.table.Handles() {
		e, ok := n.table.Peek(nw.Now(), h)
		if !ok {
			continue
		}
		if e.Idx == 0 || e.Idx == len(e.Route)-1 {
			continue // sources and destinations hold no transit obligation
		}
		prev, next := e.Route[e.Idx-1], e.Route[e.Idx+1]
		permitted := false
		for _, t := range n.sys.db.Terms(n.id) {
			if t.Permits(e.Req, prev, next) {
				permitted = true
				break
			}
		}
		if permitted {
			continue
		}
		n.table.Remove(h)
		nw.SendMessage("setup-reply", n.id, prev, &wire.SetupReply{
			Handle: h, Code: wire.SetupNoPolicy, FailedAt: n.id,
		})
	}
}

// LinkDown is the failure-driven repair path (§6): this endpoint flushes
// every handle whose route crossed the dead adjacency. If the failed hop
// was downstream, a SetupNoLink NAK walks back so the source re-establishes
// through its route server; if upstream, a repair teardown clears the
// now-unreachable state downstream.
func (n *node) LinkDown(nw *sim.Network, nb ad.ID) {
	n.flooder.Originate(nw, n.sys.db.Terms(n.id))
	now := nw.Now()
	for _, h := range n.table.Handles() {
		e, ok := n.table.Peek(now, h)
		if !ok {
			continue
		}
		upDead := e.Idx > 0 && e.Route[e.Idx-1] == nb
		downDead := e.Idx < len(e.Route)-1 && e.Route[e.Idx+1] == nb
		if !upDead && !downDead {
			continue
		}
		n.table.Remove(h)
		if downDead {
			if e.Idx == 0 {
				// This PG sourced the flow: fail it locally.
				n.lastFailCode = wire.SetupNoLink
				n.lastFailedAt = n.id
				if req, isFlow := n.flows[h]; isFlow {
					n.failFlow(h, req, wire.SetupNoLink, n.id)
				} else {
					delete(n.established, h)
				}
			} else {
				nw.SendMessage("setup-reply", n.id, e.Route[e.Idx-1], &wire.SetupReply{
					Handle: h, Code: wire.SetupNoLink, FailedAt: n.id,
				})
			}
		}
		if upDead && e.Idx < len(e.Route)-1 {
			nw.SendMessage("teardown", n.id, e.Route[e.Idx+1], &wire.Teardown{
				Handle: h, Reason: wire.TeardownRepair,
			})
		}
	}
}

func (n *node) LinkUp(nw *sim.Network, nb ad.ID) {
	n.flooder.Originate(nw, n.sys.db.Terms(n.id))
}

// String aids debugging.
func (n *node) String() string { return fmt.Sprintf("orwg-node(%v)", n.id) }

// Package lshh implements the link-state hop-by-hop architecture of Breslau
// & Estrin (SIGCOMM 1990) §5.3: policy terms are flooded in link-state
// advertisements, giving every AD global knowledge, but the forwarding
// decision remains hop-by-hop — each AD on the path recomputes the
// constrained route from its own position.
//
// The design's costs are instrumented exactly as the paper describes them:
//
//   - Replicated computation: every transit AD repeats (a suffix of) the
//     source's route computation, once per (source, destination, class)
//     context it forwards (experiment E3). The per-node route cache is the
//     "multiple spanning trees" state the paper warns about.
//   - Consistency dependence: all ADs must use the same selection rule. The
//     InconsistentTieBreak ablation gives odd ADs a different (hop-count)
//     objective, demonstrating the forwarding loops the paper predicts when
//     "all ADS in the path" do not "make the same decision as the source".
package lshh

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synthesis"
)

// Config parameterizes the protocol.
type Config struct {
	// Seed fixes the network RNG.
	Seed int64
	// InconsistentTieBreak makes odd-ID ADs minimize hop count instead
	// of policy cost — the consistency-violation ablation.
	InconsistentTieBreak bool
}

// System is an LS hop-by-hop deployment.
type System struct {
	cfg   Config
	nw    *sim.Network
	db    *policy.DB // ground-truth policy: each node floods only its own terms
	nodes map[ad.ID]*node
}

// New builds the system over g with policy db.
func New(g *ad.Graph, db *policy.DB, cfg Config) *System {
	s := &System{
		cfg:   cfg,
		nw:    sim.NewNetwork(g, cfg.Seed),
		db:    db,
		nodes: make(map[ad.ID]*node),
	}
	for _, id := range g.IDs() {
		n := &node{id: id, sys: s, flooder: flood.NewFlooder(id, "lsa")}
		n.flooder.OnChange = n.onLSDBChange
		s.nodes[id] = n
		s.nw.AddNode(n)
	}
	return s
}

// Name implements core.System.
func (s *System) Name() string { return "ls-hop-by-hop" }

// Network implements core.System.
func (s *System) Network() *sim.Network { return s.nw }

// Converge implements core.System.
func (s *System) Converge(limit sim.Time) (sim.Time, bool) {
	return s.nw.RunToQuiescence(limit)
}

// Route implements core.System: hop-by-hop forwarding where every AD
// recomputes the constrained route from its own position using its own
// LSDB.
func (s *System) Route(req policy.Request) core.Outcome {
	return core.Forward(req.Src, req.Dst, func(cur, prev ad.ID) ad.ID {
		if n, ok := s.nodes[cur]; ok {
			return n.nextHop(req, prev)
		}
		return ad.Invalid
	})
}

// StateEntries implements core.System: LSDB entries plus cached routes (the
// per-source spanning-tree state).
func (s *System) StateEntries() int {
	total := 0
	for _, n := range s.nodes {
		total += n.flooder.DB.Len()
		total += len(n.routeCache)
	}
	return total
}

// Computations implements core.System: total constrained-Dijkstra runs
// performed by all ADs.
func (s *System) Computations() int {
	total := 0
	for _, n := range s.nodes {
		total += n.computations
	}
	return total
}

// Expansions returns total search-state expansions, the finer-grained work
// measure used by E3.
func (s *System) Expansions() int {
	total := 0
	for _, n := range s.nodes {
		total += n.expansions
	}
	return total
}

// NodeComputations returns the Dijkstra-run count at one AD.
func (s *System) NodeComputations(id ad.ID) int {
	if n, ok := s.nodes[id]; ok {
		return n.computations
	}
	return 0
}

// FailLink injects a link failure.
func (s *System) FailLink(a, b ad.ID) error { return s.nw.FailLink(a, b) }

// cacheKey is a forwarding context: the paper's point is that with source
// specific policies this key space is per-source, not per-destination.
type cacheKey struct {
	src, dst, prev ad.ID
	qos            policy.QOS
	uci            policy.UCI
	hour           uint8
}

// node is one AD's LS hop-by-hop process.
type node struct {
	id      ad.ID
	sys     *System
	flooder *flood.Flooder

	// view is the graph+policy reconstructed from the LSDB, rebuilt lazily
	// after changes and compiled for searching as it is rebuilt; unitView
	// is its unit-cost variant, built on first use.
	view      *synthesis.Snapshot
	viewG     *ad.Graph
	viewDB    *policy.DB
	unitView  *synthesis.Snapshot
	viewDirty bool

	routeCache map[cacheKey]ad.ID // next hop per context

	computations int
	expansions   int
}

func (n *node) ID() ad.ID { return n.id }

func (n *node) Start(nw *sim.Network) {
	n.flooder.Originate(nw, n.sys.db.Terms(n.id))
}

func (n *node) Receive(nw *sim.Network, from ad.ID, payload []byte) {
	n.flooder.Receive(nw, from, payload)
}

func (n *node) LinkDown(nw *sim.Network, nb ad.ID) {
	n.flooder.Originate(nw, n.sys.db.Terms(n.id))
}

func (n *node) LinkUp(nw *sim.Network, nb ad.ID) {
	n.flooder.Originate(nw, n.sys.db.Terms(n.id))
}

func (n *node) onLSDBChange(nw *sim.Network) {
	n.viewDirty = true
	n.routeCache = nil
}

func (n *node) refreshView() {
	if n.view != nil && !n.viewDirty {
		return
	}
	n.viewG = n.flooder.DB.Graph()
	n.viewDB = n.flooder.DB.PolicyDB()
	// Route selection criteria are private to each source (they are not
	// flooded): only this AD's own criteria are known locally. Transit
	// ADs therefore compute without the source's criteria — precisely the
	// consistency gap §5.3 identifies.
	n.viewDB.SetCriteria(n.id, n.sys.db.CriteriaFor(n.id))
	n.view = synthesis.Compile(n.viewG, n.viewDB)
	n.unitView = nil
	n.viewDirty = false
}

// unitCostView clones the view with all link and term costs forced to 1:
// the divergent minimize-hops objective used by the inconsistency ablation.
func (n *node) unitCostView() *synthesis.Snapshot {
	if n.unitView != nil {
		return n.unitView
	}
	g := ad.NewGraph()
	for _, info := range n.viewG.ADs() {
		_ = g.AddADWithID(info.ID, info.Name, info.Class, info.Level)
	}
	for _, l := range n.viewG.Links() {
		l.Cost = 1
		_ = g.AddLink(l)
	}
	db := policy.NewDB()
	for _, adv := range n.viewDB.Advertisers() {
		for _, term := range n.viewDB.Terms(adv) {
			term.Cost = 1
			db.Add(term)
		}
	}
	for _, src := range n.viewDB.CriteriaADs() {
		db.SetCriteria(src, n.viewDB.CriteriaFor(src))
	}
	n.unitView = synthesis.Compile(g, db)
	return n.unitView
}

// nextHop computes (or retrieves) this AD's forwarding decision for the
// context. The route computation replicates the source's: same request,
// same global database, evaluated from this AD's position.
func (n *node) nextHop(req policy.Request, prev ad.ID) ad.ID {
	k := cacheKey{src: req.Src, dst: req.Dst, prev: prev, qos: req.QOS, uci: req.UCI, hour: req.Hour}
	if nh, ok := n.routeCache[k]; ok {
		return nh
	}
	n.refreshView()
	view := n.view
	if n.sys.cfg.InconsistentTieBreak && n.id%2 == 1 {
		view = n.unitCostView()
	}
	n.computations++
	res := view.FindRouteFrom(req, n.id, prev)
	n.expansions += res.Expanded
	nh := ad.Invalid
	if res.Found && len(res.Path) >= 2 {
		nh = res.Path[1]
	}
	if n.routeCache == nil {
		n.routeCache = make(map[cacheKey]ad.ID)
	}
	n.routeCache[k] = nh
	return nh
}

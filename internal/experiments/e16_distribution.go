package experiments

import (
	"repro/internal/ad"
	"repro/internal/flood"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// E16DatabaseDistribution explores §6's open issue of "database
// distribution strategies to provide the needed information for route
// computation while minimizing routing-data distribution overhead."
//
// Two strategies flood the same LSDB over the same internet:
//
//   - classic: every AD re-floods to every neighbor (duplicate-suppressed);
//   - tree-scoped: LSAs travel only over a precomputed spanning tree,
//     eliminating duplicate copies entirely.
//
// The experiment measures the traffic saved by tree scoping and its price:
// after an on-tree link fails, LSAs no longer reach the subtree, and the
// databases diverge (staleness) — classic flooding reconverges through the
// redundant links.
func E16DatabaseDistribution(seed int64) *metrics.Table {
	t := metrics.NewTable("E16 — LSDB distribution strategies",
		"strategy", "phase", "messages", "bytes", "complete-LSDBs", "stale-LSDBs")

	run := func(strategy string, scoped bool) {
		topo := topology.Generate(topology.Config{
			Seed: seed, Backbones: 2, RegionalsPerBackbone: 3,
			CampusesPerParent: 2, LateralProb: 0.3, BypassProb: 0.15,
		})
		g := topo.Graph
		db := policy.OpenDB(g)
		nw := sim.NewNetwork(g, seed)
		var tree map[[2]ad.ID]bool
		if scoped {
			tree = spanningTree(g)
		}
		nodes := make(map[ad.ID]*distNode)
		for _, id := range g.IDs() {
			n := &distNode{f: flood.NewFlooder(id, "lsa"), terms: db.Terms(id)}
			if scoped {
				self := id
				n.f.Scope = func(nb ad.ID) bool {
					return tree[linkKey(self, nb)]
				}
			}
			nodes[id] = n
			nw.AddNode(n)
		}
		nw.RunToQuiescence(convergenceLimit)

		count := func() (complete, stale int) {
			want := g.NumADs()
			for _, n := range nodes {
				if n.f.DB.Len() == want {
					complete++
				} else {
					stale++
				}
			}
			return
		}
		c0, s0 := count()
		t.AddRow(strategy, "initial", nw.Stats.MessagesSent, nw.Stats.BytesSent, c0, s0)

		// Fail one on-tree, non-partitioning link (the same in both
		// runs): classic flooding can then reconverge through the
		// redundant paths, while the tree-scoped strategy cannot.
		victim := firstCycleTreeLink(g)
		_ = nw.FailLink(victim.A, victim.B)
		nw.Engine.Run()
		// Staleness: after re-origination, how many ADs learned the
		// newest LSAs of the failed link's endpoints?
		fresh := 0
		for _, n := range nodes {
			la, oka := n.f.DB.Get(victim.A)
			lb, okb := n.f.DB.Get(victim.B)
			if oka && okb && la.Seq >= 2 && lb.Seq >= 2 {
				fresh++
			}
		}
		t.AddRow(strategy, "post-failure", nw.Stats.MessagesSent, nw.Stats.BytesSent,
			fresh, g.NumADs()-fresh)
	}

	run("classic-flood", false)
	run("tree-scoped", true)

	t.AddNote("complete-LSDBs counts ADs holding every origin; post-failure it counts ADs holding the re-originated LSAs")
	t.AddNote("tree scoping removes duplicate copies but strands the subtree when a tree link fails — the §6 tradeoff")
	return t
}

// distNode is a minimal flooding-only node for the distribution experiment.
type distNode struct {
	f     *flood.Flooder
	terms []policy.Term
}

func (n *distNode) ID() ad.ID             { return n.f.Self }
func (n *distNode) Start(nw *sim.Network) { n.f.Originate(nw, n.terms) }
func (n *distNode) Receive(nw *sim.Network, from ad.ID, payload []byte) {
	n.f.Receive(nw, from, payload)
}
func (n *distNode) LinkDown(nw *sim.Network, nb ad.ID) { n.f.Originate(nw, n.terms) }
func (n *distNode) LinkUp(nw *sim.Network, nb ad.ID)   { n.f.Originate(nw, n.terms) }

// spanningTree returns the links of a BFS spanning tree rooted at the
// lowest AD ID — a globally consistent tree every node can compute.
func spanningTree(g *ad.Graph) map[[2]ad.ID]bool {
	tree := make(map[[2]ad.ID]bool)
	ids := g.IDs()
	if len(ids) == 0 {
		return tree
	}
	root := ids[0]
	seen := map[ad.ID]bool{root: true}
	queue := []ad.ID{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(cur) {
			if seen[nb] {
				continue
			}
			seen[nb] = true
			tree[linkKey(cur, nb)] = true
			queue = append(queue, nb)
		}
	}
	return tree
}

func linkKey(a, b ad.ID) [2]ad.ID {
	if a > b {
		a, b = b, a
	}
	return [2]ad.ID{a, b}
}

// firstCycleTreeLink returns the first spanning-tree link whose removal
// leaves the graph connected (a tree link with a redundant detour). Such a
// link always exists when the graph has any cycle touching the tree.
func firstCycleTreeLink(g *ad.Graph) ad.Link {
	tree := spanningTree(g)
	for _, l := range g.Links() {
		if !tree[linkKey(l.A, l.B)] {
			continue
		}
		trial := g.Clone()
		trial.RemoveLink(l.A, l.B)
		if trial.Connected() {
			return l
		}
	}
	return g.Links()[0]
}

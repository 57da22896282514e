// Package synthesis implements policy route computation: finding AD-level
// routes that satisfy both transit policies (Policy Terms) and source route
// selection criteria.
//
// The paper identifies route synthesis as "probably the most difficult
// aspect" of the link-state source-routing architecture (§6) and calls for
// simulation of synthesis strategies. This package provides:
//
//   - FindRoute: an exact constrained shortest-path search (Dijkstra over
//     (current, previous) states, since term legality depends on the
//     previous and next AD in the path).
//   - EnumeratePaths: bounded DFS enumeration of all legal paths, used as
//     the ground-truth oracle.
//   - Precomputed, OnDemand, and Hybrid strategies with instrumentation
//     (experiment E7).
package synthesis

import (
	"sort"
	"sync"

	"repro/internal/ad"
	"repro/internal/policy"
)

// Result reports the outcome of one route computation.
type Result struct {
	// Path is the discovered route (nil if none).
	Path ad.Path
	// Cost is the policy cost of Path (links + transit terms).
	Cost uint32
	// Expanded counts search-state expansions, the computation-cost
	// measure used by E3/E7/E8.
	Expanded int
	// Found reports whether a legal route exists in the view.
	Found bool
}

// state is a Dijkstra search state. Legality of continuing through an AD
// depends on the previous hop (terms constrain PrevADs) so the state is the
// (current, previous) pair; when a hop budget applies, hops joins the state.
type state struct {
	cur, prev ad.ID
	hops      int32
}

func (st state) hash() uint32 {
	h := (uint64(st.cur)<<32 | uint64(st.prev)) * 0x9E3779B97F4A7C15
	return uint32(((h + uint64(st.hops)) * 0xC2B2AE3D27D4EB4F) >> 32)
}

// node is a discovered state: its best known cost and the node it was
// reached from (-1 at the start of the search).
type node struct {
	st     state
	dist   uint32
	parent int32
}

// pqItem is a priority-queue entry. It carries its node's index, so a pop
// reaches dist and parent without a lookup.
type pqItem struct {
	cost uint32
	node int32
	seq  uint64
}

func (a pqItem) less(b pqItem) bool {
	return a.cost < b.cost || a.cost == b.cost && a.seq < b.seq
}

// scratch is the working memory of one search, pooled so that a search
// allocates only the path it returns. nodes holds the discovered states in
// discovery order; index is an open-addressed table from state to node
// whose entries count only when stamped with the current epoch, which makes
// reset O(1); heap is a binary heap ordered by (cost, seq). A search owns
// its scratch from Get to Put and nothing in it outlives the Put.
type scratch struct {
	nodes []node
	index []indexEntry
	epoch uint32
	heap  []pqItem
}

type indexEntry struct {
	epoch uint32
	node  int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset forgets the previous search, whatever state it stopped in.
func (s *scratch) reset() {
	s.nodes, s.heap = s.nodes[:0], s.heap[:0]
	if s.epoch++; s.epoch == 0 {
		// Wrapped: stamps left 2^32 searches ago would read as current.
		clear(s.index)
		s.epoch = 1
	}
}

// relax records that st is reachable at cost from node parent. It returns
// st's node and whether cost beat what was known (always, for a new state).
func (s *scratch) relax(st state, cost uint32, parent int32) (int32, bool) {
	if 2*len(s.nodes) >= len(s.index) {
		s.index = make([]indexEntry, max(64, 2*len(s.index)))
		for i := range s.nodes {
			*s.slot(s.nodes[i].st) = indexEntry{s.epoch, int32(i)}
		}
	}
	e := s.slot(st)
	if e.epoch != s.epoch {
		*e = indexEntry{s.epoch, int32(len(s.nodes))}
		s.nodes = append(s.nodes, node{st, cost, parent})
		return e.node, true
	}
	n := &s.nodes[e.node]
	if cost >= n.dist {
		return e.node, false
	}
	n.dist, n.parent = cost, parent
	return e.node, true
}

// slot probes linearly for st's index entry: the one naming its node, or
// the free entry where it belongs.
func (s *scratch) slot(st state) *indexEntry {
	mask := uint32(len(s.index) - 1)
	for h := st.hash() & mask; ; h = (h + 1) & mask {
		if e := &s.index[h]; e.epoch != s.epoch || s.nodes[e.node].st == st {
			return e
		}
	}
}

func (s *scratch) push(it pqItem) {
	h := append(s.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	s.heap = h
}

func (s *scratch) pop() pqItem {
	h := s.heap
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	s.heap = h
	if len(h) == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// FindRoute computes the minimum-cost legal route for req over the given
// graph and policy database. Cost is the sum of link costs and the cheapest
// permitting term's cost at each transit AD. The source's selection
// criteria (avoid set, hop budget) are honored.
//
// With positive link costs the minimum-cost walk never repeats an AD, so the
// returned path is loop-free by construction; a final validation guards the
// invariant regardless.
func FindRoute(g *ad.Graph, db *policy.DB, req policy.Request) Result {
	return FindRouteFrom(g, db, req, req.Src, ad.Invalid)
}

// FindRouteFrom computes the minimum-cost legal continuation of a path for
// req starting at AD from, which the traffic entered from prev (Invalid when
// from is the source itself). Hop-by-hop link-state forwarding (paper §5.3)
// uses this: every transit AD repeats the source's computation from its own
// position, which is exactly the replicated work the paper criticises.
//
// When from is not the source, terms at from must permit the continuation
// (the entry from prev is part of the legality check at from). The source's
// selection criteria still apply: the paper notes hop-by-hop routing only
// stays consistent if "all ADS in the path must be aware of policy related
// criteria used by the source".
func FindRouteFrom(g *ad.Graph, db *policy.DB, req policy.Request, from, prev ad.ID) Result {
	if from == req.Dst {
		if _, ok := g.AD(from); !ok {
			return Result{}
		}
		return Result{Path: ad.Path{from}, Found: true}
	}
	if _, ok := g.AD(from); !ok {
		return Result{}
	}
	if _, ok := g.AD(req.Dst); !ok {
		return Result{}
	}
	crit := db.CriteriaFor(req.Src)
	trackHops := crit.MaxHops > 0
	avoids := !crit.Avoid.Empty()

	sc := scratchPool.Get().(*scratch)
	sc.reset()
	start, _ := sc.relax(state{cur: from, prev: prev}, 0, -1)
	sc.push(pqItem{node: start})
	var seq uint64
	expanded := 0
	goal := int32(-1)

	for len(sc.heap) > 0 {
		it := sc.pop()
		n := sc.nodes[it.node]
		if it.cost > n.dist {
			continue
		}
		expanded++
		st := n.st
		if st.cur == req.Dst {
			goal = it.node
			break
		}
		if trackHops && int(st.hops) >= crit.MaxHops {
			continue
		}
		links := g.Incident(st.cur)
		for i := range links {
			link := &links[i]
			next, _ := link.Other(st.cur)
			if next == st.prev {
				continue // no immediate backtracking
			}
			// Source criteria: avoid set applies to transit ADs.
			if avoids && next != req.Dst && crit.Avoid.Contains(next) {
				continue
			}
			nc := it.cost + link.Cost
			// Transit-term cost and legality at cur (not required at the
			// source itself).
			if st.cur != req.Src {
				termCost, ok := db.TransitCost(st.cur, req, st.prev, next)
				if !ok {
					continue
				}
				nc += termCost
			}
			ns := state{cur: next, prev: st.cur}
			if trackHops {
				ns.hops = st.hops + 1
			}
			if ni, better := sc.relax(ns, nc, it.node); better {
				seq++
				sc.push(pqItem{cost: nc, node: ni, seq: seq})
			}
		}
	}
	if goal < 0 {
		scratchPool.Put(sc)
		return Result{Expanded: expanded}
	}
	// Reconstruct: one allocation, filled from the goal backwards.
	hops := 0
	for i := goal; i >= 0; i = sc.nodes[i].parent {
		hops++
	}
	path := make(ad.Path, hops)
	for i := goal; i >= 0; i = sc.nodes[i].parent {
		hops--
		path[hops] = sc.nodes[i].st.cur
	}
	cost := sc.nodes[goal].dist
	scratchPool.Put(sc)

	legal := path.LoopFree()
	if legal {
		if from == req.Src {
			legal = db.PathLegal(path, req)
		} else {
			legal = continuationLegal(db, path, req, prev)
		}
	}
	if !legal {
		// Defensive: should be unreachable with positive costs.
		return Result{Expanded: expanded}
	}
	return Result{Path: path, Cost: cost, Expanded: expanded, Found: true}
}

// continuationLegal checks a path suffix starting at a transit AD: every AD
// on it except the final destination needs a permitting term, where the
// first AD's previous hop is entry.
func continuationLegal(db *policy.DB, path ad.Path, req policy.Request, entry ad.ID) bool {
	if len(path) == 0 || path.Dest() != req.Dst {
		return false
	}
	prev := entry
	for i := 0; i < len(path)-1; i++ {
		if _, ok := db.TransitCost(path[i], req, prev, path[i+1]); !ok {
			return false
		}
		prev = path[i]
	}
	return true
}

// EnumerateConfig bounds EnumeratePaths.
type EnumerateConfig struct {
	// MaxPaths stops enumeration after this many legal paths (0 = no
	// bound; use with care on dense graphs).
	MaxPaths int
	// MaxHops bounds path length in AD hops (0 = graph diameter bound of
	// NumADs-1, i.e. elementary paths only).
	MaxHops int
}

// EnumeratePaths returns every legal loop-free path for req, in
// lexicographic DFS order, subject to the config bounds. It is the oracle
// against which protocol route availability is measured.
func EnumeratePaths(g *ad.Graph, db *policy.DB, req policy.Request, cfg EnumerateConfig) []ad.Path {
	if _, ok := g.AD(req.Src); !ok {
		return nil
	}
	if _, ok := g.AD(req.Dst); !ok {
		return nil
	}
	maxHops := cfg.MaxHops
	if maxHops <= 0 {
		maxHops = g.NumADs() - 1
	}
	crit := db.CriteriaFor(req.Src)
	if crit.MaxHops > 0 && crit.MaxHops < maxHops {
		maxHops = crit.MaxHops
	}
	var out []ad.Path
	visited := map[ad.ID]bool{req.Src: true}
	path := ad.Path{req.Src}

	var dfs func() bool // returns false when MaxPaths reached
	dfs = func() bool {
		cur := path[len(path)-1]
		if cur == req.Dst {
			out = append(out, path.Clone())
			return cfg.MaxPaths == 0 || len(out) < cfg.MaxPaths
		}
		if path.Hops() >= maxHops {
			return true
		}
		var prev ad.ID = ad.Invalid
		if len(path) >= 2 {
			prev = path[len(path)-2]
		}
		for _, next := range g.Neighbors(cur) {
			if visited[next] {
				continue
			}
			if cur != req.Src {
				if _, ok := db.TransitCost(cur, req, prev, next); !ok {
					continue
				}
			}
			if next != req.Dst {
				if crit.Avoid.Contains(next) || crit.Avoid.IsUniversal() {
					continue
				}
			}
			visited[next] = true
			path = append(path, next)
			ok := dfs()
			path = path[:len(path)-1]
			delete(visited, next)
			if !ok {
				return false
			}
		}
		return true
	}
	if req.Src == req.Dst {
		return []ad.Path{{req.Src}}
	}
	dfs()
	return out
}

// RouteExists reports whether any legal route exists for req.
func RouteExists(g *ad.Graph, db *policy.DB, req policy.Request) bool {
	return FindRoute(g, db, req).Found
}

// KShortest returns up to k legal paths ordered by increasing policy cost
// (ties broken lexicographically). It enumerates legal paths and sorts, so
// it is intended for modest graphs and bounded k.
func KShortest(g *ad.Graph, db *policy.DB, req policy.Request, k int, maxHops int) []ad.Path {
	paths := EnumeratePaths(g, db, req, EnumerateConfig{MaxHops: maxHops})
	type scored struct {
		p ad.Path
		c uint32
	}
	var sc []scored
	for _, p := range paths {
		c, ok := db.PathCost(g, p, req)
		if !ok {
			continue
		}
		sc = append(sc, scored{p: p, c: c})
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].c != sc[j].c {
			return sc[i].c < sc[j].c
		}
		return sc[i].p.String() < sc[j].p.String()
	})
	if k > 0 && len(sc) > k {
		sc = sc[:k]
	}
	out := make([]ad.Path, len(sc))
	for i, s := range sc {
		out[i] = s.p
	}
	return out
}

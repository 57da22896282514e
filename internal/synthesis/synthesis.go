// Package synthesis implements policy route computation: finding AD-level
// routes that satisfy both transit policies (Policy Terms) and source route
// selection criteria.
//
// The paper identifies route synthesis as "probably the most difficult
// aspect" of the link-state source-routing architecture (§6) and calls for
// simulation of synthesis strategies. This package provides:
//
//   - Snapshot: a (graph, policy database) state compiled into dense,
//     immutable tables, and the one search kernel over it — FindRoute, an
//     exact constrained shortest-path search (Dijkstra over directed edges,
//     since term legality depends on the previous and next AD in the path,
//     behind a reachability pass that drops states which can no longer get
//     to the destination).
//   - EnumeratePaths: bounded DFS enumeration of all legal paths, used as
//     the ground-truth oracle. It and KShortest walk the plain graph and
//     database on purpose: the oracle must not share the kernel's view.
//   - Table: the one Strategy type — routes precomputed for a request
//     population with the search behind them — whose constructors
//     (NewOnDemand, NewPrecomputed, NewHybrid, NewPruned) are the strategies
//     of §5.4.1 that experiment E7 compares; Memo for a caller that wants
//     searched routes remembered.
//   - Change, World and Footprint: what a mutation can have invalidated.
package synthesis

import (
	"sort"

	"repro/internal/ad"
	"repro/internal/policy"
)

// Result reports the outcome of one route computation.
type Result struct {
	// Path is the discovered route (nil if none).
	Path ad.Path
	// Cost is the policy cost of Path (links + transit terms).
	Cost uint32
	// Expanded counts search-state expansions (states popped from the
	// queue at their best cost), the computation-cost measure of Table 1,
	// E3, E7, E8 and E20.
	// The reachability pass that runs before the search is not counted: a
	// search it settles expands nothing.
	Expanded int
	// Found reports whether a legal route exists in the view.
	Found bool
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

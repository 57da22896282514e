// Package ordering implements the global partial ordering of ADs used by
// the ECMA (NIST) proposal to express policy in the topology (paper §5.1.1).
//
// Every inter-AD link is labelled "up" or "down" according to the relative
// position of its endpoints in the ordering. The forwarding rule — once a
// packet (or routing update) traverses a down link it may never traverse
// another up link — prevents loops and the count-to-infinity phenomenon.
//
// The package also implements the paper's satisfiability concern: the
// policies of all ADs may not be expressible in any single partial ordering,
// in which case a central authority must negotiate policy relaxation
// (experiment E10).
package ordering

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ad"
)

// Direction labels a link traversal relative to the partial ordering.
type Direction uint8

const (
	// Up is a traversal toward an AD higher in the ordering.
	Up Direction = iota
	// Down is a traversal toward an AD lower in the ordering.
	Down
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Ordering assigns each AD a rank; higher rank is higher in the hierarchy.
// Ranks are strict (no two ADs share one) so every link has a definite
// direction, which the ECMA design requires for the up/down labelling.
type Ordering struct {
	rank map[ad.ID]int64
}

// Direction returns the direction of travelling from one AD to an adjacent
// AD: Up when the target ranks higher.
func (o Ordering) Direction(from, to ad.ID) Direction {
	if o.rank[to] > o.rank[from] {
		return Up
	}
	return Down
}

// UpDownValid reports whether path obeys the ECMA forwarding rule: after
// the first down traversal, no up traversal may occur.
func (o Ordering) UpDownValid(path ad.Path) bool {
	seenDown := false
	for i := 1; i < len(path); i++ {
		switch o.Direction(path[i-1], path[i]) {
		case Down:
			seenDown = true
		case Up:
			if seenDown {
				return false
			}
		}
	}
	return true
}

// FromLevels derives the natural ordering from the topology hierarchy:
// backbones above regionals above metros above campuses, with AD ID as a
// deterministic tie-break within a level. This is the ordering a central
// authority would compute for a purely hierarchical internet.
func FromLevels(g *ad.Graph) Ordering {
	o := Ordering{rank: make(map[ad.ID]int64, g.NumADs())}
	for _, info := range g.ADs() {
		major := int64(3 - int64(info.Level)) // campus=0 ... backbone=3
		o.rank[info.ID] = major<<33 - int64(info.ID)
	}
	return o
}

// Constraint requires Above to rank strictly higher than Below. ADs express
// their topological policies to the central authority as such constraints
// (e.g. "my provider must be above me", "that AD must not receive my
// updates from above").
type Constraint struct {
	Above, Below ad.ID
}

// String implements fmt.Stringer.
func (c Constraint) String() string { return fmt.Sprintf("%v>%v", c.Above, c.Below) }

// FromConstraints attempts to build an ordering satisfying every
// constraint. It reports false when the constraints are cyclic, i.e. not
// mutually satisfiable in any single partial ordering — the failure mode
// the paper warns about (§5.1.1).
//
// Ranks are assigned by longest-path layering of the constraint DAG;
// unconstrained ADs from universe get distinct ranks below all constrained
// ones.
func FromConstraints(universe []ad.ID, cons []Constraint) (Ordering, bool) {
	// Build the constraint digraph Above -> Below.
	succ := make(map[ad.ID][]ad.ID)
	indeg := make(map[ad.ID]int)
	nodes := make(map[ad.ID]bool)
	for _, c := range cons {
		if c.Above == c.Below {
			return Ordering{}, false
		}
		succ[c.Above] = append(succ[c.Above], c.Below)
		indeg[c.Below]++
		nodes[c.Above] = true
		nodes[c.Below] = true
	}
	// Kahn's algorithm with deterministic order.
	var frontier []ad.ID
	for id := range nodes {
		if indeg[id] == 0 {
			frontier = append(frontier, id)
		}
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	layer := make(map[ad.ID]int64, len(nodes))
	processed := 0
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, id := range frontier {
			processed++
			for _, below := range succ[id] {
				if layer[id]+1 > layer[below] {
					layer[below] = layer[id] + 1
				}
				indeg[below]--
				if indeg[below] == 0 {
					next = append(next, below)
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		frontier = next
	}
	if processed != len(nodes) {
		return Ordering{}, false // cycle
	}
	// Convert layers (0 = top) into ranks (higher = top), ID tie-break.
	var maxLayer int64
	for _, l := range layer {
		if l > maxLayer {
			maxLayer = l
		}
	}
	o := Ordering{rank: make(map[ad.ID]int64, len(universe))}
	for id := range nodes {
		o.rank[id] = (maxLayer-layer[id]+1)<<33 - int64(id)
	}
	for _, id := range universe {
		if !nodes[id] {
			o.rank[id] = -int64(id) // below all constrained ADs
		}
	}
	return o, true
}

// cycleFinder is the constraint digraph Above -> Below over dense node
// numbers, built once per negotiation. Node i is the i-th smallest AD ID
// named by any constraint; out[off[u]:off[u+1]] are u's constraint indices
// in constraint order. Dropping a constraint sets its tail to -1, so each
// round searches the same arrays. Every array is carved from one slab.
type cycleFinder struct {
	head   []int32 // dense Above of each constraint
	tail   []int32 // dense Below of each constraint, -1 once dropped
	off    []int32
	out    []int32
	color  []int32 // white, gray or black, per node
	parent []int32 // constraint by which the DFS entered each node
	stack  []int32 // DFS path: node u at depth d resumes at out[pos[d]]
	pos    []int32
}

const (
	white int32 = iota
	gray
	black
)

func newCycleFinder(cons []Constraint) cycleFinder {
	// Sort the endpoints as (AD ID, 2i for Above or 2i+1 for Below) so one
	// walk numbers the ADs in ascending ID; it writes each endpoint's
	// number over its ID.
	m := len(cons)
	ends := make([]uint64, 0, 2*m)
	for i, c := range cons {
		ends = append(ends, uint64(c.Above)<<32|uint64(2*i), uint64(c.Below)<<32|uint64(2*i+1))
	}
	slices.Sort(ends)
	n, prev := 0, uint64(0) // ADs numbered so far, and the last one's ID
	for j, e := range ends {
		if id := e >> 32; j == 0 || id != prev {
			n, prev = n+1, id
		}
		ends[j] = uint64(n-1)<<32 | e&(1<<32-1)
	}
	slab := make([]int32, 3*m+5*n+1)
	carve := func(k int) []int32 {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	f := cycleFinder{
		head: carve(m), tail: carve(m), out: carve(m), off: carve(n + 1),
		color: carve(n), parent: carve(n), stack: carve(n)[:0], pos: carve(n)[:0],
	}
	for _, e := range ends {
		if i := uint32(e) / 2; e&1 == 0 {
			f.head[i] = int32(e >> 32)
		} else {
			f.tail[i] = int32(e >> 32)
		}
	}
	for _, u := range f.head {
		f.off[u+1]++
	}
	for u := 0; u < n; u++ {
		f.off[u+1] += f.off[u]
	}
	// The build's cursors borrow the DFS stack, empty until find.
	next := append(f.stack, f.off[:n]...)
	for i, u := range f.head {
		f.out[next[u]] = int32(i)
		next[u]++
	}
	return f
}

// find returns the highest constraint index on one directed cycle among the
// live constraints, or -1 if they are acyclic. DFS roots are tried in
// ascending AD ID and edges in constraint order. A root with no live
// out-edge turns black at once and finds nothing, so trying it changes no
// later visit.
func (f *cycleFinder) find() int {
	clear(f.color)
	for root := range f.color {
		if f.color[root] != white {
			continue
		}
		f.color[root] = gray
		f.stack = append(f.stack[:0], int32(root))
		f.pos = append(f.pos[:0], f.off[root])
		for len(f.stack) > 0 {
			d := len(f.stack) - 1
			u := f.stack[d]
			if f.pos[d] == f.off[u+1] {
				f.color[u] = black
				f.stack, f.pos = f.stack[:d], f.pos[:d]
				continue
			}
			ei := f.out[f.pos[d]]
			f.pos[d]++
			v := f.tail[ei]
			if v < 0 {
				continue
			}
			switch f.color[v] {
			case white:
				f.color[v] = gray
				f.parent[v] = ei
				f.stack = append(f.stack, v)
				f.pos = append(f.pos, f.off[v])
			case gray:
				// Found a cycle: walk back from u to v.
				top := ei
				for x := u; x != v; x = f.head[f.parent[x]] {
					top = max(top, f.parent[x])
				}
				return int(top)
			}
		}
	}
	return -1
}

// Negotiate simulates the central authority's conflict-resolution process:
// while the constraint set is cyclic, one constraint on a detected cycle is
// dropped (the highest-index one, i.e. most recently registered policy
// loses). It returns the satisfiable subset and the number of negotiation
// rounds (dropped constraints). A set is satisfiable — it admits a single
// partial ordering, a self-constraint counting as a cycle — exactly when
// negotiating it takes 0 rounds; FromConstraints builds that ordering.
func Negotiate(cons []Constraint) (kept []Constraint, rounds int) {
	f := newCycleFinder(cons)
	for drop := f.find(); drop >= 0; drop = f.find() {
		f.tail[drop] = -1
		rounds++
	}
	kept = make([]Constraint, 0, len(cons)-rounds)
	for i, c := range cons {
		if f.tail[i] >= 0 {
			kept = append(kept, c)
		}
	}
	return kept, rounds
}

// Package ad defines Administrative Domain (AD) identities, classes, and the
// AD-level graph on which all inter-AD routing protocols in this repository
// operate.
//
// Following Breslau & Estrin (SIGCOMM 1990) §4.1, an inter-AD route is a
// sequence of ADs: routing internal to a domain is abstracted away entirely.
// The graph therefore has one node per AD and one edge per inter-AD
// connection (a "virtual gateway" in ORWG terminology).
package ad

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ID identifies an Administrative Domain. IDs are dense small integers
// assigned by the topology builder; 0 is reserved as Invalid.
type ID uint32

// Invalid is the zero ID; no real AD ever has it.
const Invalid ID = 0

// String implements fmt.Stringer.
func (id ID) String() string {
	var buf [maxIDText]byte
	return string(id.Append(buf[:0]))
}

// maxIDText is the longest String of an ID: "AD" and ten digits.
const maxIDText = 2 + 10

// Append appends the String form of id to b and returns the extended slice.
func (id ID) Append(b []byte) []byte {
	if id == Invalid {
		return append(b, "AD?"...)
	}
	return strconv.AppendUint(append(b, "AD"...), uint64(id), 10)
}

// Class categorizes an AD by its transit behaviour (paper §2.1).
type Class uint8

const (
	// Stub ADs originate and sink traffic but never carry transit traffic.
	Stub Class = iota
	// MultihomedStub ADs have more than one inter-AD connection but still
	// disallow all transit traffic.
	MultihomedStub
	// Transit ADs exist primarily to carry traffic for other ADs
	// (backbones and regionals).
	Transit
	// Hybrid (limited-transit) ADs support end systems as well as limited
	// forms of transit for selected neighbors.
	Hybrid
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Stub:
		return "stub"
	case MultihomedStub:
		return "multihomed-stub"
	case Transit:
		return "transit"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Level places an AD in the hierarchy of the paper's topology model (§2.1).
// Lower numeric values are higher in the hierarchy.
type Level uint8

const (
	// Backbone is a long-haul wide area network.
	Backbone Level = iota
	// Regional networks connect metropolitan/campus nets to backbones.
	Regional
	// Metro networks sit between regionals and campuses.
	Metro
	// Campus networks are the leaves of the hierarchy.
	Campus
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Backbone:
		return "backbone"
	case Regional:
		return "regional"
	case Metro:
		return "metro"
	case Campus:
		return "campus"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// LinkClass categorizes an inter-AD link per the paper's topology model:
// the hierarchy is "augmented with special purpose lateral links ... as well
// as special purpose bypass links" (§2.1).
type LinkClass uint8

const (
	// Hierarchical links connect a child AD to its parent (campus→metro,
	// metro→regional, regional→backbone) or two backbones.
	Hierarchical LinkClass = iota
	// Lateral links connect two ADs at the same level that are not
	// hierarchically related (e.g. two regionals, or two campuses).
	Lateral
	// Bypass links skip levels (e.g. campus directly to backbone).
	Bypass
)

// String implements fmt.Stringer.
func (lc LinkClass) String() string {
	switch lc {
	case Hierarchical:
		return "hierarchical"
	case Lateral:
		return "lateral"
	case Bypass:
		return "bypass"
	default:
		return fmt.Sprintf("LinkClass(%d)", uint8(lc))
	}
}

// Info is the static description of one AD.
type Info struct {
	ID    ID
	Name  string // human-readable label, unique within a graph
	Class Class
	Level Level
}

// Link is an undirected inter-AD connection. A and B are always stored with
// A < B so a link has a canonical form.
type Link struct {
	A, B  ID
	Class LinkClass
	// DelayMicros is the one-way propagation delay used by the simulator.
	DelayMicros int64
	// BandwidthBps is the link rate in bits per second; messages incur a
	// serialization delay of size/bandwidth on top of propagation. Zero
	// disables serialization modelling (propagation only).
	BandwidthBps int64
	// Cost is the routing metric advertised for traversing the link.
	Cost uint32
}

// Canonical returns the link with endpoints ordered A < B.
func (l Link) Canonical() Link {
	if l.A > l.B {
		l.A, l.B = l.B, l.A
	}
	return l
}

// Other returns the far endpoint of the link relative to id, and whether id
// is an endpoint at all.
func (l Link) Other(id ID) (ID, bool) {
	switch id {
	case l.A:
		return l.B, true
	case l.B:
		return l.A, true
	default:
		return Invalid, false
	}
}

// Graph is the AD-level topology: a set of ADs and undirected links.
// The zero value is an empty graph ready for use via AddAD/AddLink.
type Graph struct {
	ads    map[ID]Info
	links  map[[2]ID]Link
	nextID ID
	// sortedAdj holds each AD's neighbor IDs in ascending order and adj its
	// incident links in the same order (adj[id][i] leads to sortedAdj[id][i]).
	// Both are maintained incrementally by AddLink/RemoveLink (never lazily),
	// so concurrent readers of a finished graph need no synchronization.
	sortedAdj map[ID][]ID
	adj       map[ID][]Link
	// version counts mutations; see Version.
	version uint64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		ads:       make(map[ID]Info),
		adj:       make(map[ID][]Link),
		links:     make(map[[2]ID]Link),
		nextID:    1,
		sortedAdj: make(map[ID][]ID),
	}
}

// AddAD inserts a new AD with the next free ID and returns it.
func (g *Graph) AddAD(name string, class Class, level Level) ID {
	id := g.nextID
	g.nextID++
	g.ads[id] = Info{ID: id, Name: name, Class: class, Level: level}
	g.version++
	return id
}

// AddADWithID inserts an AD with a caller-chosen ID. It returns an error if
// the ID is Invalid or already in use.
func (g *Graph) AddADWithID(id ID, name string, class Class, level Level) error {
	if id == Invalid {
		return fmt.Errorf("ad: cannot add AD with the invalid ID")
	}
	if _, ok := g.ads[id]; ok {
		return fmt.Errorf("ad: duplicate AD ID %v", id)
	}
	g.ads[id] = Info{ID: id, Name: name, Class: class, Level: level}
	if id >= g.nextID {
		g.nextID = id + 1
	}
	g.version++
	return nil
}

// AddLink inserts an undirected link. It returns an error if either endpoint
// is unknown, the endpoints are equal, or the link already exists.
func (g *Graph) AddLink(l Link) error {
	l = l.Canonical()
	if l.A == l.B {
		return fmt.Errorf("ad: self-link at %v", l.A)
	}
	if _, ok := g.ads[l.A]; !ok {
		return fmt.Errorf("ad: link endpoint %v unknown", l.A)
	}
	if _, ok := g.ads[l.B]; !ok {
		return fmt.Errorf("ad: link endpoint %v unknown", l.B)
	}
	key := [2]ID{l.A, l.B}
	if _, ok := g.links[key]; ok {
		return fmt.Errorf("ad: duplicate link %v-%v", l.A, l.B)
	}
	if l.Cost == 0 {
		l.Cost = 1
	}
	g.links[key] = l
	g.attach(l.A, l.B, l)
	g.attach(l.B, l.A, l)
	g.version++
	return nil
}

// attach files link l, which leads from id to nb, at nb's place in id's
// sorted adjacency.
func (g *Graph) attach(id, nb ID, l Link) {
	i, _ := slices.BinarySearch(g.sortedAdj[id], nb)
	g.sortedAdj[id] = slices.Insert(g.sortedAdj[id], i, nb)
	g.adj[id] = slices.Insert(g.adj[id], i, l)
}

// detach drops nb and the link to it from id's sorted adjacency.
func (g *Graph) detach(id, nb ID) {
	if i, ok := slices.BinarySearch(g.sortedAdj[id], nb); ok {
		g.sortedAdj[id] = slices.Delete(g.sortedAdj[id], i, i+1)
		g.adj[id] = slices.Delete(g.adj[id], i, i+1)
	}
}

// RemoveLink deletes the link between a and b if present, reporting whether
// it existed. It is used by failure-injection scenarios.
func (g *Graph) RemoveLink(a, b ID) bool {
	l := Link{A: a, B: b}.Canonical()
	key := [2]ID{l.A, l.B}
	if _, ok := g.links[key]; !ok {
		return false
	}
	delete(g.links, key)
	g.detach(l.A, l.B)
	g.detach(l.B, l.A)
	g.version++
	return true
}

// Version counts the mutations applied to this graph: AddAD, AddADWithID,
// AddLink and RemoveLink each move it when they succeed. A compiled view of
// the graph (synthesis.Snapshot) records it to detect that the graph moved
// on; a Clone counts its own mutations from zero.
func (g *Graph) Version() uint64 { return g.version }

// AD returns the Info for id and whether it exists.
func (g *Graph) AD(id ID) (Info, bool) {
	info, ok := g.ads[id]
	return info, ok
}

// HasLink reports whether an undirected link between a and b exists.
func (g *Graph) HasLink(a, b ID) bool {
	l := Link{A: a, B: b}.Canonical()
	_, ok := g.links[[2]ID{l.A, l.B}]
	return ok
}

// LinkBetween returns the link between a and b, if any.
func (g *Graph) LinkBetween(a, b ID) (Link, bool) {
	l := Link{A: a, B: b}.Canonical()
	link, ok := g.links[[2]ID{l.A, l.B}]
	return link, ok
}

// Neighbors returns the IDs adjacent to id in ascending order. The returned
// slice is the graph's cached adjacency index: callers must not modify it.
func (g *Graph) Neighbors(id ID) []ID {
	return g.sortedAdj[id]
}

// Incident returns the links incident to id, sorted by far endpoint. Like
// Neighbors, the returned slice is the graph's own adjacency: callers must
// not modify it. Use IncidentLinks for a private slice.
func (g *Graph) Incident(id ID) []Link {
	return g.adj[id]
}

// IncidentLinks returns a freshly allocated copy of Incident(id).
func (g *Graph) IncidentLinks(id ID) []Link {
	return append([]Link(nil), g.adj[id]...)
}

// ADs returns all AD infos sorted by ID.
func (g *Graph) ADs() []Info {
	out := make([]Info, 0, len(g.ads))
	for _, info := range g.ads {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDs returns all AD IDs in ascending order.
func (g *Graph) IDs() []ID {
	out := make([]ID, 0, len(g.ads))
	for id := range g.ads {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Stubs returns the IDs of the stub and multihomed-stub ADs — the ADs that
// originate and sink traffic — in ascending order.
func (g *Graph) Stubs() []ID {
	var out []ID
	for _, id := range g.IDs() {
		if c := g.ads[id].Class; c == Stub || c == MultihomedStub {
			out = append(out, id)
		}
	}
	return out
}

// Links returns all links sorted by (A, B).
func (g *Graph) Links() []Link {
	out := make([]Link, 0, len(g.links))
	for _, l := range g.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// NumADs returns the number of ADs in the graph.
func (g *Graph) NumADs() int { return len(g.ads) }

// NumLinks returns the number of undirected links in the graph.
func (g *Graph) NumLinks() int { return len(g.links) }

// Degree returns the number of links incident to id.
func (g *Graph) Degree(id ID) int { return len(g.adj[id]) }

// Clone returns a deep copy of the graph. Protocol instances clone the graph
// so failure injection in one scenario cannot leak into another.
func (g *Graph) Clone() *Graph {
	c := NewGraph()
	c.nextID = g.nextID
	for id, info := range g.ads {
		c.ads[id] = info
	}
	for key, l := range g.links {
		c.links[key] = l
	}
	for id, s := range g.sortedAdj {
		c.sortedAdj[id] = append([]ID(nil), s...)
		c.adj[id] = append([]Link(nil), g.adj[id]...)
	}
	return c
}

// Connected reports whether the graph is connected (ignoring an empty graph,
// which is considered connected).
func (g *Graph) Connected() bool {
	if len(g.ads) == 0 {
		return true
	}
	var start ID
	for id := range g.ads {
		start = id
		break
	}
	seen := map[ID]bool{start: true}
	queue := []ID{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, l := range g.adj[cur] {
			other, _ := l.Other(cur)
			if !seen[other] {
				seen[other] = true
				queue = append(queue, other)
			}
		}
	}
	return len(seen) == len(g.ads)
}

// IsTree reports whether the graph is connected and acyclic — the topology
// restriction EGP places on the inter-AD graph (paper §3).
func (g *Graph) IsTree() bool {
	return g.Connected() && g.NumLinks() == g.NumADs()-1
}

// Path is an AD-level route: an ordered sequence of AD IDs from source to
// destination, inclusive. This is the paper's level of abstraction for an
// inter-AD route (§4.1).
type Path []ID

// Valid reports whether every consecutive pair in the path is linked in g and
// the path contains no repeated AD (i.e. is loop-free).
func (p Path) Valid(g *Graph) bool {
	if len(p) == 0 {
		return false
	}
	seen := make(map[ID]bool, len(p))
	for i, id := range p {
		if seen[id] {
			return false
		}
		seen[id] = true
		if i > 0 && !g.HasLink(p[i-1], id) {
			return false
		}
	}
	return true
}

// LoopFree reports whether the path visits no AD twice. Paths of route
// length are compared pairwise, which allocates nothing.
func (p Path) LoopFree() bool {
	if len(p) <= 32 {
		for i, id := range p {
			if slices.Contains(p[:i], id) {
				return false
			}
		}
		return true
	}
	seen := make(map[ID]bool, len(p))
	for _, id := range p {
		if seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

// Source returns the first AD of the path, or Invalid if empty.
func (p Path) Source() ID {
	if len(p) == 0 {
		return Invalid
	}
	return p[0]
}

// Dest returns the last AD of the path, or Invalid if empty.
func (p Path) Dest() ID {
	if len(p) == 0 {
		return Invalid
	}
	return p[len(p)-1]
}

// Hops returns the number of inter-AD hops (len-1), or 0 for empty paths.
func (p Path) Hops() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// Cost sums the link costs along the path using graph g. The second return
// is false if any consecutive pair is not linked.
func (p Path) Cost(g *Graph) (uint32, bool) {
	var total uint32
	for i := 1; i < len(p); i++ {
		l, ok := g.LinkBetween(p[i-1], p[i])
		if !ok {
			return 0, false
		}
		total += l.Cost
	}
	return total, true
}

// CrossesLink reports whether the path traverses the a-b adjacency in
// either direction.
func (p Path) CrossesLink(a, b ID) bool {
	for i := 1; i < len(p); i++ {
		if (p[i-1] == a && p[i] == b) || (p[i-1] == b && p[i] == a) {
			return true
		}
	}
	return false
}

// Transits reports whether id appears as a transit (interior) AD on the
// path — endpoints do not count.
func (p Path) Transits(id ID) bool {
	for i := 1; i < len(p)-1; i++ {
		if p[i] == id {
			return true
		}
	}
	return false
}

// Contains reports whether the path visits id.
func (p Path) Contains(id ID) bool {
	for _, x := range p {
		if x == id {
			return true
		}
	}
	return false
}

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the path.
func (p Path) Clone() Path {
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// Reverse returns the path in the opposite direction.
func (p Path) Reverse() Path {
	out := make(Path, len(p))
	for i, id := range p {
		out[len(p)-1-i] = id
	}
	return out
}

// String renders the path as "AD1>AD2>AD3". It sizes the text before
// writing it, so the string is its one allocation.
func (p Path) String() string {
	if len(p) == 0 {
		return "<empty>"
	}
	var buf [maxIDText]byte
	n := len(p) - 1 // the separators
	for _, id := range p {
		n += len(id.Append(buf[:0]))
	}
	var b strings.Builder
	b.Grow(n)
	for i, id := range p {
		if i > 0 {
			b.WriteByte('>')
		}
		b.Write(id.Append(buf[:0]))
	}
	return b.String()
}

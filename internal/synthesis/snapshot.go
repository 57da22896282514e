package synthesis

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/ad"
	"repro/internal/policy"
)

// Snapshot is one (graph, policy database) state compiled for searching:
// ADs renumbered 0..n-1 in ascending ID order, adjacency in CSR form, every
// AD's terms contiguous with their AD sets as bitsets over the dense
// numbering, every source's criteria beside them. It is immutable and
// self-contained — its methods read nothing but the snapshot, so any number
// of goroutines may search one — and it answers for the state it was
// compiled from, not for what the graph or database became since: whoever
// holds one across mutations asks Current and recompiles.
//
// ADs a term or criterion names that are absent from the graph (a partial
// link-state view, or a previous hop of ad.Invalid) have no dense index;
// they are kept by ID in per-term lists that only a request naming such an
// AD ever consults.
type Snapshot struct {
	// g, db and the two versions identify the state compiled. Current
	// compares them; nothing is ever read through the pointers.
	g           *ad.Graph
	db          *policy.DB
	gver, dbver uint64

	ids   []ad.ID // dense index -> ID, ascending
	words int32   // uint64 words per AD bitset

	// The directed edges out of AD i are edges[adjOff[i]:adjOff[i+1]], in
	// ascending head order; tail[e] is the AD edge e leaves. A directed edge
	// is also a search state: "at its head, having entered from its tail".
	adjOff []int32
	edges  []edge
	tail   []int32

	// The terms of AD i are terms[termOff[i]:termOff[i+1]], cheapest first
	// and otherwise in advertised order, so the first one that admits a
	// traversal is the one policy.DB's cheapest-first-on-a-tie rule picks.
	termOff []int32
	terms   []term
	bits    []uint64  // every bitset, words each
	absent  [][]ad.ID // by-ID members, four lists per term that has any

	crit       []criteria // by dense index
	absentCrit map[ad.ID]criteria
}

type edge struct {
	head int32
	cost uint32
}

// The four AD sets of a term, in the order their bitsets are laid out.
const (
	setSources = iota
	setDests
	setPrev
	setNext
)

type term struct {
	qos, uci policy.ClassSet
	hours    uint32 // bit h is set when the term's window contains hour h
	cost     uint32
	serial   uint32
	sets     int32 // offset in bits of the four bitsets
	absent   int32 // offset in Snapshot.absent of the four by-ID lists, or -1
	univ     uint8 // bit per set: it is the universal set
}

// criteria is a source's compiled selection policy.
type criteria struct {
	maxHops int
	avoid   int32 // offset in bits of the avoid set, or -1 when it is empty
}

// ref names an AD the way the snapshot knows it: by dense index, or — for
// an AD absent from the graph — by ID with idx -1.
type ref struct {
	idx int32
	id  ad.ID
}

// Compile builds the snapshot of g and db as they are now. It reads both
// and must not race with their mutation. On the benchmark internet (111
// ADs) it costs a few searches' worth (BenchmarkCompile); callers that
// search in a loop hold the result for as long as Current says so.
func Compile(g *ad.Graph, db *policy.DB) *Snapshot {
	ids := g.IDs()
	n, nl, nt := len(ids), g.NumLinks(), db.NumTerms()
	s := &Snapshot{
		g: g, db: db, gver: g.Version(), dbver: db.Version(),
		ids:     ids,
		words:   int32(n+63) / 64,
		adjOff:  make([]int32, n+1),
		edges:   make([]edge, 0, 2*nl),
		tail:    make([]int32, 0, 2*nl),
		termOff: make([]int32, n+1),
		terms:   make([]term, 0, nt),
		crit:    make([]criteria, n),
	}
	s.bits = make([]uint64, 0, (4*nt+n/8)*int(s.words))
	for i, id := range ids {
		for _, l := range g.Incident(id) {
			nb, _ := l.Other(id)
			s.edges = append(s.edges, edge{head: s.index(nb), cost: l.Cost})
			s.tail = append(s.tail, int32(i))
		}
		s.adjOff[i+1] = int32(len(s.edges))

		first := len(s.terms)
		ts := db.Terms(id)
		for j := range ts {
			s.terms = append(s.terms, s.compileTerm(&ts[j]))
		}
		slices.SortStableFunc(s.terms[first:], func(a, b term) int { return cmp.Compare(a.cost, b.cost) })
		s.termOff[i+1] = int32(len(s.terms))

		s.crit[i] = s.compileCriteria(db.CriteriaFor(id))
	}
	for _, id := range db.CriteriaADs() {
		if s.index(id) < 0 {
			if s.absentCrit == nil {
				s.absentCrit = make(map[ad.ID]criteria)
			}
			s.absentCrit[id] = s.compileCriteria(db.CriteriaFor(id))
		}
	}
	return s
}

func (s *Snapshot) compileTerm(t *policy.Term) term {
	ct := term{
		qos: t.QOS, uci: t.UCI, cost: t.Cost, serial: t.Serial,
		sets: int32(len(s.bits)), absent: -1,
	}
	for h := uint8(0); h < 24; h++ {
		if t.Hours.Contains(h) {
			ct.hours |= 1 << h
		}
	}
	for i, set := range [...]policy.ADSet{setSources: t.Sources, setDests: t.Dests, setPrev: t.PrevADs, setNext: t.NextADs} {
		if set.IsUniversal() {
			ct.univ |= 1 << i
		}
		if byID := s.compileSet(set); len(byID) > 0 {
			if ct.absent < 0 {
				ct.absent = int32(len(s.absent))
				s.absent = append(s.absent, nil, nil, nil, nil)
			}
			s.absent[int(ct.absent)+i] = byID
		}
	}
	return ct
}

func (s *Snapshot) compileCriteria(c policy.Criteria) criteria {
	cc := criteria{maxHops: c.MaxHops, avoid: -1}
	if !c.Avoid.Empty() {
		// Members absent from the graph are on no path through it.
		cc.avoid = int32(len(s.bits))
		s.compileSet(c.Avoid)
	}
	return cc
}

// compileSet appends set's bitset (all ones for the universal set) and
// returns the members that have no dense index.
func (s *Snapshot) compileSet(set policy.ADSet) (byID []ad.ID) {
	base := len(s.bits)
	fill := uint64(0)
	if set.IsUniversal() {
		fill = ^uint64(0)
	}
	for range s.words {
		s.bits = append(s.bits, fill)
	}
	set.Each(func(id ad.ID) {
		if i := s.index(id); i >= 0 {
			s.bits[base+int(i>>6)] |= 1 << (i & 63)
		} else {
			byID = append(byID, id)
		}
	})
	return byID
}

// Current reports whether the snapshot still describes g and db: it was
// compiled from these two objects and neither has been mutated since.
func (s *Snapshot) Current(g *ad.Graph, db *policy.DB) bool {
	return s.g == g && s.db == db && s.gver == g.Version() && s.dbver == db.Version()
}

// Refresh returns s while it is Current for g and db, and a fresh Compile
// when it is not (or is nil). It is the whole duty of a single-goroutine
// holder: h.snap = h.snap.Refresh(g, db) before it searches.
func (s *Snapshot) Refresh(g *ad.Graph, db *policy.DB) *Snapshot {
	if s != nil && s.Current(g, db) {
		return s
	}
	return Compile(g, db)
}

// index returns id's dense index, or -1 when the graph has no such AD.
func (s *Snapshot) index(id ad.ID) int32 { return int32(ad.Position(s.ids, id)) }

func (s *Snapshot) ref(id ad.ID) ref { return ref{idx: s.index(id), id: id} }

func (s *Snapshot) criteriaOf(a ref) criteria {
	if a.idx >= 0 {
		return s.crit[a.idx]
	}
	if c, ok := s.absentCrit[a.id]; ok {
		return c
	}
	return criteria{avoid: -1}
}

// bit reports whether the bitset at off has dense index i.
func (s *Snapshot) bit(off, i int32) bool {
	return s.bits[int(off)+int(i>>6)]>>(i&63)&1 != 0
}

// has reports whether t's given set contains a.
func (s *Snapshot) has(t *term, set int32, a ref) bool {
	if a.idx >= 0 {
		return s.bit(t.sets+set*s.words, a.idx)
	}
	return t.univ>>set&1 != 0 ||
		t.absent >= 0 && slices.Contains(s.absent[t.absent+set], a.id)
}

// query is a request with everything a term test needs worked out once.
type query struct {
	qos, uci policy.ClassSet // the request's class as a one-member set
	hour     uint32          // likewise its hour
	src, dst ref
}

func (s *Snapshot) query(req policy.Request) query {
	return query{
		qos:  policy.ClassSetOf(uint8(req.QOS)),
		uci:  policy.ClassSetOf(uint8(req.UCI)),
		hour: 1 << (req.Hour % 24),
		src:  s.ref(req.Src),
		dst:  s.ref(req.Dst),
	}
}

// admitted appends to live the terms of AD c that admit q's traffic entering
// from prev — every test of policy.Term.Permits but the exit — in cheapest
// first order. The search runs it once per expansion, so only permitting
// remains to be done per neighbour.
func (s *Snapshot) admitted(live []int32, c int32, q *query, prev ref) []int32 {
	for i := s.termOff[c]; i < s.termOff[c+1]; i++ {
		if t := &s.terms[i]; s.matches(t, q) && s.has(t, setPrev, prev) {
			live = append(live, i)
		}
	}
	return live
}

// matches reports whether t admits q's classes, hour, source and
// destination: the tests of a term that depend on neither neighbour.
func (s *Snapshot) matches(t *term, q *query) bool {
	return t.qos&q.qos != 0 && t.uci&q.uci != 0 && t.hours&q.hour != 0 &&
		s.has(t, setSources, q.src) && s.has(t, setDests, q.dst)
}

// permitting returns the cheapest of the admitted terms that permits exit
// toward next, or nil.
func (s *Snapshot) permitting(live []int32, next int32) *term {
	off := setNext * s.words
	for _, i := range live {
		if t := &s.terms[i]; s.bit(t.sets+off, next) {
			return t
		}
	}
	return nil
}

// cell is the search's knowledge of one state: its best known cost and the
// state it was reached from (-1 at the start), valid when stamp is the
// current epoch.
type cell struct {
	stamp, dist uint32
	parent      int32
}

// pqItem is a queue entry. key packs (cost, seq) into one word, so the
// heap orders by cost and, among equals, by push order with one compare.
type pqItem struct {
	key   uint64
	state int32
}

// scratch is the working memory of one search, pooled so that a search
// allocates only the path it returns. cells is indexed by state and stamped
// with an epoch, which makes reset O(1); heap is a binary heap on pqItem.key.
// A search owns its scratch from Get to Put and nothing in it outlives the
// Put.
type scratch struct {
	cells []cell
	epoch uint32
	heap  []pqItem
	seq   uint32
	live  []int32  // admitted terms of the expansion under way
	path  []int32  // the found path in dense indices, for validation
	reach []uint64 // the reach set of the search under way, one bit per AD
	queue []int32  // the reachability pass's queue
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset forgets the previous search, whatever state it stopped in, and
// makes room for states 0..n-1.
func (sc *scratch) reset(n int) {
	sc.heap, sc.seq = sc.heap[:0], 0
	if sc.epoch++; sc.epoch == 0 {
		// Wrapped: stamps left 2^32 searches ago would read as current.
		clear(sc.cells)
		sc.epoch = 1
	}
	sc.grow(n)
}

// grow makes room for states 0..n-1; new cells carry no epoch's stamp.
func (sc *scratch) grow(n int) {
	if n > len(sc.cells) {
		sc.cells = append(sc.cells, make([]cell, max(n, 2*len(sc.cells))-len(sc.cells))...)
	}
}

// reachable fills sc.reach with the reach set of a search for q from AD
// from: every AD from which q's traffic may still get to the destination,
// as far as a test that ignores each term's previous-hop set can tell. It
// is a breadth-first walk backwards from the destination over the CSR. An
// AD the walk comes to from w joins the set when it is the source, which
// needs no term, or when the source does not avoid it (the search's start
// is not avoided: the search never enters it) and one of its terms admits
// q with w in its next-hop set.
//
// Since the test is weaker than the search's own, the set is closed
// backwards: a state whose AD is outside it has no successor inside it.
// So dropping every such state drops no parent of a state that survives,
// the survivors are queued and popped in the same relative (cost, seq)
// order, and Path, Cost and Found come out as they would without it.
func (s *Snapshot) reachable(sc *scratch, q *query, from, avoid int32) {
	sc.reach = slices.Grow(sc.reach[:0], int(s.words))[:s.words]
	clear(sc.reach)
	sc.reach[q.dst.idx>>6] |= 1 << (q.dst.idx & 63)
	sc.queue = append(sc.queue[:0], q.dst.idx)
	for i := 0; i < len(sc.queue); i++ {
		w := sc.queue[i]
		for _, e := range s.edges[s.adjOff[w]:s.adjOff[w+1]] {
			v := e.head
			if sc.reached(v) || v != q.src.idx && !s.leadsTo(v, w, q, from, avoid) {
				continue
			}
			sc.reach[v>>6] |= 1 << (v & 63)
			sc.queue = append(sc.queue, v)
		}
	}
}

// leadsTo reports whether v, not the source, may carry q's traffic on to
// its neighbour w, whatever AD the traffic entered v from.
func (s *Snapshot) leadsTo(v, w int32, q *query, from, avoid int32) bool {
	if avoid >= 0 && v != from && s.bit(avoid, v) {
		return false
	}
	next := setNext * s.words
	for i := s.termOff[v]; i < s.termOff[v+1]; i++ {
		if t := &s.terms[i]; s.matches(t, q) && s.bit(t.sets+next, w) {
			return true
		}
	}
	return false
}

// reached reports whether AD i is in the reach set.
func (sc *scratch) reached(i int32) bool {
	return sc.reach[i>>6]>>(i&63)&1 != 0
}

// relax records that state is reachable at cost from parent and queues it,
// if cost beats what was known (always, for a state not yet seen).
func (sc *scratch) relax(state int32, cost uint32, parent int32) {
	c := &sc.cells[state]
	if c.stamp == sc.epoch && cost >= c.dist {
		return
	}
	*c = cell{stamp: sc.epoch, dist: cost, parent: parent}
	sc.push(cost, state)
}

func (sc *scratch) push(cost uint32, state int32) {
	if sc.seq == math.MaxUint32 {
		sc.renumber()
	}
	it := pqItem{key: uint64(cost)<<32 | uint64(sc.seq), state: state}
	sc.seq++
	h := append(sc.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if it.key >= h[p].key {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	sc.heap = h
}

// renumber hands the queued entries the sequence numbers 0..len-1 in their
// current order, once a search has used up all 2^32: a sorted slice is a
// heap, and relative order is all seq is for.
func (sc *scratch) renumber() {
	slices.SortFunc(sc.heap, func(a, b pqItem) int { return cmp.Compare(a.key, b.key) })
	for i := range sc.heap {
		sc.heap[i].key = sc.heap[i].key&^math.MaxUint32 | uint64(i)
	}
	sc.seq = uint32(len(sc.heap))
}

func (sc *scratch) pop() pqItem {
	h := sc.heap
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	sc.heap = h
	if len(h) == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].key < h[c].key {
			c++
		}
		if h[c].key >= last.key {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// FindRoute computes the minimum-cost legal route for req. Cost is the sum
// of link costs and the cheapest permitting term's cost at each transit AD.
// The source's selection criteria (avoid set, hop budget) are honored.
//
// With positive link costs the minimum-cost walk never repeats an AD, so the
// returned path is loop-free by construction; a final validation guards the
// invariant regardless.
func (s *Snapshot) FindRoute(req policy.Request) Result {
	return s.FindRouteFrom(req, req.Src, ad.Invalid)
}

// RouteExists reports whether any legal route exists for req.
func (s *Snapshot) RouteExists(req policy.Request) bool {
	return s.FindRoute(req).Found
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
//
// Before the search, the reachability pass (reachable) marks the ADs that
// may still get the traffic to req.Dst; the search returns at once when from
// is not one of them and never queues a state at an AD that is not. Result
// for result, that is the search it would be without the pass, in fewer
// expansions.
//
// It is a Dijkstra search over directed edges — legality of continuing
// through an AD depends on the previous hop, so "at v, entered from u" is
// the state, and that is the edge u→v; under a hop budget the hop count
// joins it. Costs, parents and stamps live in one flat pooled table indexed
// by hops·states+edge; the one state that may be no edge, the start, takes
// the slot after the last edge unless prev→from is an edge, in which case
// it is that edge's state, exactly as a walk arriving over it would find.
func (s *Snapshot) FindRouteFrom(req policy.Request, from, prev ad.ID) Result {
	fromIdx := s.index(from)
	if fromIdx < 0 {
		return Result{}
	}
	if from == req.Dst {
		return Result{Path: ad.Path{from}, Found: true}
	}
	q := s.query(req)
	dst := q.dst.idx
	if dst < 0 {
		return Result{}
	}
	entry := s.ref(prev)
	crit := s.criteriaOf(q.src)

	// States per hop level: every directed edge, and the free-standing start.
	nStates := int32(len(s.edges)) + 1
	free := nStates - 1
	start := free
	if entry.idx >= 0 {
		if e, ok := s.edgeBetween(entry.idx, fromIdx); ok {
			start = e
		}
	}
	// A hop level is nStates cells; levels are added as the search climbs.
	// The budget is also capped where state numbers would leave int32.
	maxHops := int32(0)
	if crit.maxHops > 0 {
		maxHops = int32(min(crit.maxHops, math.MaxInt32/int(nStates)-1))
	}

	sc := scratchPool.Get().(*scratch)
	if s.reachable(sc, &q, fromIdx, crit.avoid); !sc.reached(fromIdx) {
		scratchPool.Put(sc)
		return Result{}
	}
	sc.reset(int(nStates))
	sc.relax(start, 0, -1)
	expanded := 0
	goal := int32(-1)

	for len(sc.heap) > 0 {
		it := sc.pop()
		cost := uint32(it.key >> 32)
		if cost > sc.cells[it.state].dist {
			continue
		}
		expanded++
		e, level := it.state, int32(0)
		if maxHops > 0 {
			level = it.state / nStates
			e -= level * nStates
		}
		cur, came := fromIdx, entry
		if e != free {
			cur, came = s.edges[e].head, ref{idx: s.tail[e]}
		}
		if cur == dst {
			goal = it.state
			break
		}
		next := int32(0) // first state of the level neighbours land on
		if maxHops > 0 {
			if level >= maxHops {
				continue
			}
			next = (level + 1) * nStates
			sc.grow(int(next + nStates))
		}
		// Transit terms are not required at the source itself.
		transit := cur != q.src.idx
		if transit {
			if sc.live = s.admitted(sc.live[:0], cur, &q, came); len(sc.live) == 0 {
				continue
			}
		}
		for out := s.adjOff[cur]; out < s.adjOff[cur+1]; out++ {
			nb := s.edges[out]
			if nb.head == came.idx || !sc.reached(nb.head) {
				continue // no immediate backtracking, no dead end
			}
			// Source criteria: avoid set applies to transit ADs.
			if crit.avoid >= 0 && nb.head != dst && s.bit(crit.avoid, nb.head) {
				continue
			}
			nc := cost + nb.cost
			if transit {
				t := s.permitting(sc.live, nb.head)
				if t == nil {
					continue
				}
				nc += t.cost
			}
			sc.relax(next+out, nc, it.state)
		}
	}
	if goal < 0 {
		scratchPool.Put(sc)
		return Result{Expanded: expanded}
	}
	// Reconstruct: one allocation, filled from the goal backwards.
	hops := 0
	for st := goal; st >= 0; st = sc.cells[st].parent {
		hops++
	}
	dense := slices.Grow(sc.path[:0], hops)[:hops]
	path := make(ad.Path, hops)
	for st := goal; st >= 0; st = sc.cells[st].parent {
		hops--
		if e := st % nStates; e != free {
			dense[hops] = s.edges[e].head
		} else {
			dense[hops] = fromIdx
		}
		path[hops] = s.ids[dense[hops]]
	}
	cost := sc.cells[goal].dist
	legal := path.LoopFree()
	if legal && from == req.Src {
		legal = s.pathLegal(dense, &q)
	} else if legal {
		legal = s.transitLegal(dense, 0, entry, &q)
	}
	sc.path = dense
	scratchPool.Put(sc)
	if !legal {
		// Defensive: should be unreachable with positive costs.
		return Result{Expanded: expanded}
	}
	return Result{Path: path, Cost: cost, Expanded: expanded, Found: true}
}

// edgeBetween returns the directed edge a→b.
func (s *Snapshot) edgeBetween(a, b int32) (int32, bool) {
	out := s.edges[s.adjOff[a]:s.adjOff[a+1]]
	i, ok := slices.BinarySearchFunc(out, b, func(e edge, b int32) int { return cmp.Compare(e.head, b) })
	return s.adjOff[a] + int32(i), ok
}

// PathLegal reports whether path is legal for req under the compiled policy:
// it must start at req.Src, end at req.Dst, be loop-free, satisfy the
// source's selection criteria, and every transit AD on it must advertise a
// term permitting the traversal (endpoint ADs need none for their own
// traffic). Like policy.DB.PathLegal it does not ask whether the links
// exist; unlike it, a path through an AD the graph does not have is illegal.
func (s *Snapshot) PathLegal(path ad.Path, req policy.Request) bool {
	var buf [16]int32
	dense, ok := s.dense(buf[:0], path)
	if !ok || len(dense) == 0 || !path.LoopFree() {
		return false
	}
	q := s.query(req)
	return s.pathLegal(dense, &q)
}

// dense appends path's dense indices to buf; false if any AD is absent.
func (s *Snapshot) dense(buf []int32, path ad.Path) ([]int32, bool) {
	for _, id := range path {
		i := s.index(id)
		if i < 0 {
			return nil, false
		}
		buf = append(buf, i)
	}
	return buf, true
}

// pathLegal is PathLegal on a non-empty, loop-free path of dense indices.
func (s *Snapshot) pathLegal(path []int32, q *query) bool {
	if path[0] != q.src.idx || path[len(path)-1] != q.dst.idx {
		return false
	}
	crit := s.criteriaOf(q.src)
	if crit.maxHops > 0 && len(path)-1 > crit.maxHops {
		return false
	}
	if crit.avoid >= 0 {
		for _, c := range path[1 : len(path)-1] {
			if s.bit(crit.avoid, c) {
				return false
			}
		}
	}
	return len(path) == 1 || s.transitLegal(path, 1, ref{idx: path[0]}, q)
}

// transitLegal reports whether every AD of path from position i up to, not
// including, the last advertises a term permitting q's traffic between its
// neighbours on the path, the AD at i being entered from prev.
func (s *Snapshot) transitLegal(path []int32, i int, prev ref, q *query) bool {
	var buf [8]int32
	for ; i < len(path)-1; i++ {
		if s.permitting(s.admitted(buf[:0], path[i], q, prev), path[i+1]) == nil {
			return false
		}
		prev = ref{idx: path[i]}
	}
	return true
}

// Footprint derives the dependency set of a route found for req: the
// adjacencies it traverses and, at each transit AD, the key of the cheapest
// permitting term — the term whose cost the synthesis charged. A change to
// any other term at that AD cannot make the path illegal (some term still
// permits it) — only cheaper, which the legality retention contract
// tolerates. A path through an AD the graph does not have — not one this
// snapshot found — gets its links only.
func (s *Snapshot) Footprint(req policy.Request, path ad.Path) Footprint {
	if len(path) < 2 {
		return Footprint{}
	}
	fp := Footprint{Links: make([][2]ad.ID, 0, len(path)-1)}
	for i := 1; i < len(path); i++ {
		fp.Links = append(fp.Links, ad.LinkKey(path[i-1], path[i]))
	}
	var buf [16]int32
	dense, ok := s.dense(buf[:0], path)
	if !ok || len(path) < 3 {
		return fp
	}
	q := s.query(req)
	fp.Terms = make([]policy.Key, 0, len(path)-2)
	var live [8]int32
	for i := 1; i < len(dense)-1; i++ {
		if t := s.permitting(s.admitted(live[:0], dense[i], &q, ref{idx: dense[i-1]}), dense[i+1]); t != nil {
			fp.Terms = append(fp.Terms, policy.Key{Advertiser: path[i], Serial: t.serial})
		}
	}
	return fp
}

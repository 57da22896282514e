package synthesis

// Differential harness for the search kernel (a retained reference,
// lockstep seeded random inputs, the seed printed on divergence).
// referenceFindRouteFrom is the constrained Dijkstra exactly as it stood
// before any kernel replaced it: it walks the live graph and policy
// database, two maps keyed by (current, previous, hops) state,
// container/heap, the adjacency sorted on every expansion, a copied Term
// per candidate. It runs two ways. With the reach rule (referenceReach, the
// kernel's reachability pass written over ad.Graph and policy.Term fields)
// the snapshot kernel must return the same Path, Cost, Found and — because
// (cost, seq) is a total order and neighbours are visited in the same
// order — the same Expanded. Without it, the search the kernel was before
// the pass, the kernel must return the same Path, Cost and Found in no more
// expansions. Replay one world with `-run TestDifferentialFindRoute
// -diffseed N`.

import (
	"container/heap"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/racecheck"
	"repro/internal/topology"
)

var diffSeed = flag.Int64("diffseed", -1, "replay one differential-test seed (-1 = all)")

type refState struct {
	cur, prev ad.ID
	hops      int
}

type refItem struct {
	st   refState
	cost uint32
	seq  uint64
}

type refPQ []refItem

func (q refPQ) Len() int { return len(q) }
func (q refPQ) Less(i, j int) bool {
	if q[i].cost != q[j].cost {
		return q[i].cost < q[j].cost
	}
	return q[i].seq < q[j].seq
}
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(refItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// referenceFindRouteFrom searches for req from AD from, entered from prev.
// With reach set it drops every state whose AD referenceReach leaves out.
func referenceFindRouteFrom(g *ad.Graph, db *policy.DB, req policy.Request, from, prev ad.ID, reach bool) Result {
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
	var inReach map[ad.ID]bool
	if reach {
		if inReach = referenceReach(g, db, req, from); !inReach[from] {
			return Result{}
		}
	}
	crit := db.CriteriaFor(req.Src)
	trackHops := crit.MaxHops > 0

	dist := make(map[refState]uint32)
	parent := make(map[refState]refState)
	start := refState{cur: from, prev: prev}
	dist[start] = 0
	var q refPQ
	var seq uint64
	heap.Push(&q, refItem{st: start, cost: 0, seq: seq})
	expanded := 0
	var goal refState
	found := false

	for q.Len() > 0 {
		it := heap.Pop(&q).(refItem)
		st := it.st
		if d, ok := dist[st]; !ok || it.cost > d {
			continue
		}
		expanded++
		if st.cur == req.Dst {
			goal = st
			found = true
			break
		}
		if trackHops && st.hops >= crit.MaxHops {
			continue
		}
		cur := st.cur
		// The reference sorts for itself, as Graph.IncidentLinks used to:
		// it must not lean on the ordering the kernel's view relies on.
		links := g.IncidentLinks(cur)
		sort.Slice(links, func(i, j int) bool {
			oi, _ := links[i].Other(cur)
			oj, _ := links[j].Other(cur)
			return oi < oj
		})
		for _, link := range links {
			next, _ := link.Other(cur)
			if next == st.prev || reach && !inReach[next] {
				continue
			}
			var termCost uint32
			if cur != req.Src {
				t, ok := db.PermitsTransit(cur, req, st.prev, next)
				if !ok {
					continue
				}
				termCost = t.Cost
			}
			if next != req.Dst && crit.Avoid.Contains(next) {
				continue
			}
			if crit.Avoid.IsUniversal() && next != req.Dst {
				continue
			}
			ns := refState{cur: next, prev: cur}
			if trackHops {
				ns.hops = st.hops + 1
			}
			nc := it.cost + link.Cost + termCost
			if d, ok := dist[ns]; ok && nc >= d {
				continue
			}
			dist[ns] = nc
			parent[ns] = st
			seq++
			heap.Push(&q, refItem{st: ns, cost: nc, seq: seq})
		}
	}
	if !found {
		return Result{Expanded: expanded}
	}
	var rev ad.Path
	for st := goal; ; {
		rev = append(rev, st.cur)
		if st == start {
			break
		}
		st = parent[st]
	}
	path := rev.Reverse()
	legal := path.LoopFree()
	if legal {
		if from == req.Src {
			legal = db.PathLegal(path, req)
		} else {
			legal = continuationLegal(db, path, req, prev)
		}
	}
	if !legal {
		return Result{Expanded: expanded}
	}
	return Result{Path: path, Cost: dist[goal], Expanded: expanded, Found: true}
}

// referenceReach is the kernel's reach set on the reference's own terms:
// walking back from req.Dst over g, an AD v come to from w joins when it is
// req.Src, or when the source's avoid set spares it (from is spared: the
// search never enters it) and one of its terms matches req's classes,
// hour, source and destination with w in NextADs, whatever PrevADs says.
func referenceReach(g *ad.Graph, db *policy.DB, req policy.Request, from ad.ID) map[ad.ID]bool {
	avoid := db.CriteriaFor(req.Src).Avoid
	leadsTo := func(v, w ad.ID) bool {
		if v != from && avoid.Contains(v) {
			return false
		}
		for _, t := range db.Terms(v) {
			if t.QOS.Contains(uint8(req.QOS)) && t.UCI.Contains(uint8(req.UCI)) && t.Hours.Contains(req.Hour) &&
				t.Sources.Contains(req.Src) && t.Dests.Contains(req.Dst) && t.NextADs.Contains(w) {
				return true
			}
		}
		return false
	}
	reach := map[ad.ID]bool{req.Dst: true}
	for queue := []ad.ID{req.Dst}; len(queue) > 0; queue = queue[1:] {
		w := queue[0]
		for _, v := range g.Neighbors(w) {
			if !reach[v] && (v == req.Src || leadsTo(v, w)) {
				reach[v] = true
				queue = append(queue, v)
			}
		}
	}
	return reach
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

// search is one kernel input: a request and the position it is searched
// from (from == req.Src, prev == Invalid for a source search).
type search struct {
	req        policy.Request
	from, prev ad.ID
}

func (s search) run(snap *Snapshot) Result {
	return snap.FindRouteFrom(s.req, s.from, s.prev)
}

// reference is s on the reference search with the reach rule: the kernel's
// result in every field.
func (s search) reference(g *ad.Graph, db *policy.DB) Result {
	return referenceFindRouteFrom(g, db, s.req, s.from, s.prev, true)
}

// unpruned is s on the reference search without the reach rule.
func (s search) unpruned(g *ad.Graph, db *policy.DB) Result {
	return referenceFindRouteFrom(g, db, s.req, s.from, s.prev, false)
}

// diverges returns how the kernel's result for s departs from the two
// references, or "" when it does not.
func (s search) diverges(got Result, g *ad.Graph, db *policy.DB) string {
	if want := s.reference(g, db); !sameResult(got, want) {
		return fmt.Sprintf("kernel    %+v\nreference %+v", got, want)
	}
	if full := s.unpruned(g, db); !sameRoute(got, full) || got.Expanded > full.Expanded {
		return fmt.Sprintf("kernel    %+v\nunpruned  %+v", got, full)
	}
	return ""
}

func sameResult(a, b Result) bool {
	return sameRoute(a, b) && a.Expanded == b.Expanded
}

func sameRoute(a, b Result) bool {
	return a.Found == b.Found && a.Cost == b.Cost && a.Path.Equal(b.Path)
}

// diffWorld generates an internet large and permissive enough that searches
// run deep (randomScenario's are mostly refused within two expansions),
// with tied and differing term costs, then layers on the source criteria
// the policy generator never emits: hop budgets, larger avoid sets and
// avoid-everything.
func diffWorld(seed int64, rng *rand.Rand) (*ad.Graph, *policy.DB) {
	g := topology.Generate(topology.Config{
		Seed:                 seed,
		Backbones:            2 + rng.Intn(3),
		RegionalsPerBackbone: 2 + rng.Intn(3),
		MetrosPerRegional:    rng.Intn(3),
		CampusesPerParent:    2 + rng.Intn(3),
		LateralProb:          0.1 + rng.Float64()*0.4,
		BypassProb:           rng.Float64() * 0.3,
		MultihomedProb:       rng.Float64() * 0.3,
		HybridProb:           rng.Float64() * 0.3,
	}).Graph
	db := policy.Generate(g, policy.GenConfig{
		Seed:                  seed + 1,
		SourceRestrictionProb: rng.Float64() * 0.4,
		SourceFraction:        0.5 + rng.Float64()*0.5,
		DestRestrictionProb:   rng.Float64() * 0.3,
		DestFraction:          0.5 + rng.Float64()*0.5,
		HybridSourceFraction:  0.5 + rng.Float64()*0.5,
		QOSClasses:            1 + rng.Intn(3),
		UCIClasses:            1 + rng.Intn(2),
		TimeWindowProb:        rng.Float64() * 0.3,
		TermsPerTransit:       1 + rng.Intn(3),
		MaxTermCost:           1 + rng.Intn(5),
		AvoidProb:             rng.Float64() * 0.3,
	})
	ids := g.IDs()
	for _, id := range ids {
		c := db.CriteriaFor(id)
		switch rng.Intn(12) {
		case 0:
			c.MaxHops = 1 + rng.Intn(8)
		case 1:
			c.Avoid = policy.SetOf(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
			c.MaxHops = rng.Intn(10)
		case 2:
			c.Avoid = policy.Universal()
		default:
			continue
		}
		db.SetCriteria(id, c)
	}
	return g, db
}

// churn is a differential world under mutation: the graph and database the
// reference walks, and what the mutations need to remember.
type churn struct {
	rng  *rand.Rand
	g    *ad.Graph
	db   *policy.DB
	ids  []ad.ID   // g.IDs()
	down []ad.Link // removed, not yet restored
}

// pick draws an AD: usually one of the graph's, now and then one it does
// not have — past the last ID, in a gap, or Invalid.
func (c *churn) pick() ad.ID {
	if c.rng.Intn(25) == 0 {
		return c.absent()
	}
	return c.ids[c.rng.Intn(len(c.ids))]
}

func (c *churn) absent() ad.ID {
	for {
		var id ad.ID
		switch c.rng.Intn(4) {
		case 0:
			return ad.Invalid
		case 1:
			id = c.ids[c.rng.Intn(len(c.ids))] + 1 // in a gap, once IDs have gaps
		default:
			id = c.ids[len(c.ids)-1] + ad.ID(1+c.rng.Intn(3))
		}
		if _, ok := c.g.AD(id); !ok {
			return id
		}
	}
}

// set draws an AD set: universal, or a few members of which some may be
// absent from the graph.
func (c *churn) set(universalIn, members int) policy.ADSet {
	if c.rng.Intn(universalIn) > 0 {
		return policy.Universal()
	}
	ids := make([]ad.ID, c.rng.Intn(members+1))
	for i := range ids {
		ids[i] = c.pick()
	}
	return policy.SetOf(ids...)
}

// neighbourSet draws a PrevADs/NextADs constraint at id: universal, or some
// of its neighbours plus, now and then, an AD that is none.
func (c *churn) neighbourSet(id ad.ID) policy.ADSet {
	if c.rng.Intn(2) == 0 {
		return policy.Universal()
	}
	var ids []ad.ID
	for _, nb := range c.g.Neighbors(id) {
		if c.rng.Intn(3) > 0 {
			ids = append(ids, nb)
		}
	}
	if c.rng.Intn(4) == 0 {
		ids = append(ids, c.pick())
	}
	return policy.SetOf(ids...)
}

func (c *churn) term(id ad.ID) policy.Term {
	t := policy.OpenTerm(id, 0)
	t.Sources, t.Dests = c.set(4, 40), c.set(5, 40)
	t.PrevADs, t.NextADs = c.neighbourSet(id), c.neighbourSet(id)
	t.Cost = uint32(1 + c.rng.Intn(3)) // ties are the rule
	if c.rng.Intn(4) == 0 {
		t.QOS = policy.ClassSetOf(uint8(c.rng.Intn(3)), uint8(c.rng.Intn(3)))
	}
	if c.rng.Intn(4) == 0 {
		t.UCI = policy.ClassSetOf(uint8(c.rng.Intn(2)))
	}
	if c.rng.Intn(3) == 0 { // plain, wrapping and empty windows
		t.Hours = policy.HourWindow{Start: uint8(c.rng.Intn(24)), End: uint8(c.rng.Intn(25))}
	}
	return t
}

// mutate applies one random mutation, or most of the time none. Beyond the
// adjacency churn the kernel has always faced (remove, restore, clone) it
// replaces term sets, installs criteria — also for sources the graph does
// not have — and grows the graph by ADs whose IDs leave gaps.
func (c *churn) mutate(t *testing.T) {
	rng := c.rng
	switch rng.Intn(18) {
	case 0:
		if links := c.g.Links(); len(links) > 0 {
			l := links[rng.Intn(len(links))]
			c.g.RemoveLink(l.A, l.B)
			c.down = append(c.down, l)
		}
	case 1:
		if len(c.down) > 0 {
			i := rng.Intn(len(c.down))
			if err := c.g.AddLink(c.down[i]); err != nil {
				t.Fatalf("restore %v: %v", c.down[i], err)
			}
			c.down = append(c.down[:i], c.down[i+1:]...)
		}
	case 2:
		c.g = c.g.Clone()
		if rng.Intn(2) == 0 {
			c.db = c.db.Clone()
		}
	case 3, 4:
		id := c.ids[rng.Intn(len(c.ids))]
		terms := make([]policy.Term, rng.Intn(4))
		for i := range terms {
			terms[i] = c.term(id)
		}
		c.db.SetTerms(id, terms)
	case 5:
		crit := policy.Criteria{MaxHops: rng.Intn(9)}
		switch rng.Intn(4) {
		case 0:
			crit.Avoid = policy.Universal()
		case 1, 2:
			crit.Avoid = c.set(1, 6)
		}
		c.db.SetCriteria(c.pick(), crit)
	case 6:
		id := c.ids[len(c.ids)-1] + ad.ID(1+rng.Intn(4))
		if rng.Intn(4) == 0 {
			id += 1 << 20
		}
		if err := c.g.AddADWithID(id, id.String(), ad.Hybrid, ad.Regional); err != nil {
			t.Fatalf("add %v: %v", id, err)
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			// A duplicate link is refused; the AD just has fewer.
			_ = c.g.AddLink(ad.Link{A: id, B: c.ids[rng.Intn(len(c.ids))], Cost: uint32(1 + rng.Intn(3))})
		}
		if rng.Intn(3) > 0 {
			c.db.Add(policy.OpenTerm(id, 0))
		}
		c.ids = c.g.IDs()
	}
}

// search draws a source search, a continuation from a transit position (the
// lshh path: from != src, entered from a neighbour, from an AD that is no
// neighbour, from one the graph does not have, or from nowhere), or one of
// the degenerate cases: from == dst, unknown endpoints.
func (c *churn) search() search {
	rng := c.rng
	req := policy.Request{Src: c.pick(), Dst: c.pick(), Hour: uint8(rng.Intn(24))}
	if rng.Intn(3) == 0 { // classes above 0 are not offered everywhere
		req.QOS, req.UCI = policy.QOS(rng.Intn(3)), policy.UCI(rng.Intn(2))
	}
	s := search{req: req, from: req.Src, prev: ad.Invalid}
	switch rng.Intn(4) {
	case 0:
		s.from = c.pick()
		switch nbs, r := c.g.Neighbors(s.from), rng.Intn(8); {
		case r < 5 && len(nbs) > 0:
			s.prev = nbs[rng.Intn(len(nbs))]
		case r == 5:
			s.prev = c.pick()
		case r == 6:
			s.prev = c.absent()
		}
	case 1:
		if rng.Intn(5) == 0 {
			s.from = req.Dst
		}
	}
	return s
}

// diffSeeds are the differential worlds' seeds, or the one -diffseed names.
func diffSeeds() []int64 {
	if *diffSeed >= 0 {
		return []int64{*diffSeed}
	}
	seeds := make([]int64, 40)
	for i := range seeds {
		seeds[i] = int64(i)*31 + 7
	}
	return seeds
}

func TestDifferentialFindRoute(t *testing.T) {
	for _, seed := range diffSeeds() {
		c := &churn{rng: rand.New(rand.NewSource(seed))}
		c.g, c.db = diffWorld(seed, c.rng)
		c.ids = c.g.IDs()
		snap := Compile(c.g, c.db)
		found := 0
		for step := 0; step < 300; step++ {
			c.mutate(t)
			// The holder's duty: a snapshot answers for the state it was
			// compiled from, so recompile when that state moved on.
			if !snap.Current(c.g, c.db) {
				snap = Compile(c.g, c.db)
			}
			s := c.search()
			got := s.run(snap)
			if d := s.diverges(got, c.g, c.db); d != "" {
				t.Fatalf("seed %d step %d: %v from %v (entered from %v) diverged:\n%s",
					seed, step, s.req, s.from, s.prev, d)
			}
			if got.Found && len(got.Path) > 2 {
				found++
				if gl, wl := snap.PathLegal(got.Path, s.req), c.db.PathLegal(got.Path, s.req); gl != wl {
					t.Fatalf("seed %d step %d: PathLegal(%v, %v) = %v, policy.DB says %v", seed, step, got.Path, s.req, gl, wl)
				}
			}
		}
		if found < 20 {
			t.Errorf("seed %d: only %d searches found a transit route; the churn has strangled the world", seed, found)
		}
	}
}

// TestReachSetSound: the reachability pass leaves out no AD of a legal
// route. Over the differential worlds, every AD of every legal path that
// EnumeratePaths finds for a source search (up to MaxPaths of at most
// MaxHops each) is in the reach set the kernel computes for it.
func TestReachSetSound(t *testing.T) {
	for _, seed := range diffSeeds() {
		c := &churn{rng: rand.New(rand.NewSource(seed))}
		c.g, c.db = diffWorld(seed, c.rng)
		c.ids = c.g.IDs()
		snap := Compile(c.g, c.db)
		var sc scratch
		transit := 0
		for i := 0; i < 100; i++ {
			req := c.search().req
			q := snap.query(req)
			if q.dst.idx < 0 {
				continue
			}
			snap.reachable(&sc, &q, q.src.idx, snap.criteriaOf(q.src).avoid)
			for _, p := range EnumeratePaths(c.g, c.db, req, EnumerateConfig{MaxPaths: 64, MaxHops: 6}) {
				for _, id := range p {
					if !sc.reached(snap.index(id)) {
						t.Fatalf("seed %d: %v: legal path %v goes through %v, which is outside the reach set", seed, req, p, id)
					}
				}
				if len(p) > 2 {
					transit++
				}
			}
		}
		if transit < 20 {
			t.Errorf("seed %d: only %d legal transit paths to check", seed, transit)
		}
	}
}

// FuzzFindRoute holds the kernel to both references on a differential
// world: seed picks the world, the rest the search. An AD operand is taken
// modulo the AD count plus three, so 0 is ad.Invalid and the two values
// past the last AD are absent from the graph; from == 0 makes it a source
// search. `make fuzz` runs it for 15 s.
func FuzzFindRoute(f *testing.F) {
	for i := range 8 {
		seed, n := int64(i)*31+7, uint16(3+5*i)
		f.Add(seed, n, 2*n, uint16(0), uint16(0), uint8(0), uint8(0), uint8(12))
		f.Add(seed, n, 2*n+1, n+1, n, uint8(i%3), uint8(i%2), uint8(3*i))
	}
	f.Fuzz(func(t *testing.T, seed int64, src, dst, from, prev uint16, qos, uci, hour uint8) {
		w := fuzzWorld(seed)
		pick := func(x uint16) ad.ID { return ad.ID(int(x) % (w.g.NumADs() + 3)) }
		req := policy.Request{Src: pick(src), Dst: pick(dst), QOS: policy.QOS(qos), UCI: policy.UCI(uci), Hour: hour}
		s := search{req: req, from: req.Src, prev: ad.Invalid}
		if id := pick(from); id != ad.Invalid {
			s.from, s.prev = id, pick(prev)
		}
		if d := s.diverges(s.run(w.snap), w.g, w.db); d != "" {
			t.Fatalf("world %d: %v from %v (entered from %v) diverged:\n%s", seed, s.req, s.from, s.prev, d)
		}
	})
}

type compiledWorld struct {
	g    *ad.Graph
	db   *policy.DB
	snap *Snapshot
}

var fuzzWorlds struct {
	sync.Mutex
	m map[int64]compiledWorld
}

// fuzzWorld returns diffWorld(seed) and its snapshot, kept for the next
// input that names the same seed.
func fuzzWorld(seed int64) compiledWorld {
	fuzzWorlds.Lock()
	defer fuzzWorlds.Unlock()
	if w, ok := fuzzWorlds.m[seed]; ok {
		return w
	}
	if len(fuzzWorlds.m) >= 64 || fuzzWorlds.m == nil {
		fuzzWorlds.m = make(map[int64]compiledWorld)
	}
	g, db := diffWorld(seed, rand.New(rand.NewSource(seed)))
	w := compiledWorld{g: g, db: db, snap: Compile(g, db)}
	fuzzWorlds.m[seed] = w
	return w
}

// TestScratchReuse: a search that stops at the goal leaves its queue and
// table behind in the pooled scratch; the next search out of the same pool,
// for a different request, must not see any of it.
func TestScratchReuse(t *testing.T) {
	g, db, tape := benchWorld()
	snap := Compile(g, db)
	searches := foundAndNot(t, g, db, tape)
	dirty := false
	for try := 0; try < 100 && !dirty; try++ {
		searches.found.run(snap)
		sc := scratchPool.Get().(*scratch)
		dirty = len(sc.heap) > 0 && sc.epoch > 0
		scratchPool.Put(sc)
		for _, s := range []search{searches.none, searches.other, searches.found} {
			if got, want := s.run(snap), s.reference(g, db); !sameResult(got, want) {
				t.Fatalf("%v after an early exit diverged:\nkernel    %+v\nreference %+v", s.req, got, want)
			}
		}
	}
	if !dirty && !racecheck.Enabled { // under -race the pool drops puts at random
		t.Fatal("never saw the scratch of an early-exit search come back out of the pool")
	}
}

// TestScratchEpochWrap: when the epoch counter wraps, cells stamped 2^32
// searches ago must not read as current (their costs and parents are gone).
func TestScratchEpochWrap(t *testing.T) {
	var s scratch
	s.reset(8)
	s.relax(3, 5, -1) // stamped with epoch 1
	s.epoch = ^uint32(0)
	s.reset(8)
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	if s.relax(3, 9, -1); len(s.heap) != 1 || s.cells[3].dist != 9 {
		t.Fatalf("state of a wrapped-away search still known: queued %d, dist %d", len(s.heap), s.cells[3].dist)
	}
}

// TestScratchSeqWrap: the queue breaks cost ties by push order with a 32-bit
// sequence number; when a search runs out of them, the queued entries are
// renumbered and the order of everything queued before and after holds.
func TestScratchSeqWrap(t *testing.T) {
	var s scratch
	s.reset(16)
	s.seq = math.MaxUint32 - 3
	for st := int32(0); st < 8; st++ {
		s.relax(st, uint32(7-st)/3, -1) // costs 2,2,1,1,1,0,0,0
	}
	if s.seq >= math.MaxUint32-3 {
		t.Fatalf("seq = %d: never renumbered", s.seq)
	}
	var got []int32
	for len(s.heap) > 0 {
		got = append(got, s.pop().state)
	}
	if want := []int32{5, 6, 7, 2, 3, 4, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("pop order across a seq wrap = %v, want %v", got, want)
	}
}

// TestConcurrentSearches: goroutines searching one shared snapshot share
// nothing else but the pool. Run under -race by `make check`.
func TestConcurrentSearches(t *testing.T) {
	g, db, _ := benchWorld()
	c := &churn{rng: rand.New(rand.NewSource(5)), g: g, db: db, ids: g.IDs()}
	tape := make([]search, 400)
	want := make([]Result, len(tape))
	for i := range tape {
		tape[i] = c.search()
		want[i] = tape[i].reference(g, db)
	}
	snap := Compile(g, db)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < len(tape); n++ {
				i := (n*7 + w*53) % len(tape)
				if got := tape[i].run(snap); !sameResult(got, want[i]) {
					t.Errorf("worker %d: %v diverged:\nkernel    %+v\nreference %+v", w, tape[i].req, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestAllocsFindRoute pins the kernel's allocation contract: nothing for a
// search that finds no route, the returned path alone for one that does.
func TestAllocsFindRoute(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g, db, tape := benchWorld()
	snap := Compile(g, db)
	searches := foundAndNot(t, g, db, tape)
	if n := testing.AllocsPerRun(200, func() { searches.none.run(snap) }); n != 0 {
		t.Errorf("no-route search: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { searches.found.run(snap) }); n != 1 {
		t.Errorf("found search: %v allocs/op, want 1 (the path)", n)
	}
}

// TestExpandedPinned: the work the kernel does over the benchmark's request
// tape, counted in expansions, is a property of the algorithm and the
// world, not of the box — 27.92 per search, to the unit: 48.83 for each of
// the 2,342 searches that find a route, none for the 1,754 that the
// reachability pass settles. A kernel change that moves it has changed what
// Table 1, E3, E7, E8 and E20 report.
func TestExpandedPinned(t *testing.T) {
	g, db, tape := benchWorld()
	snap := Compile(g, db)
	total := 0
	for _, req := range tape {
		total += snap.FindRoute(req).Expanded
	}
	const want = 114369
	if total != want {
		t.Errorf("expansions over the %d-request tape = %d (%.2f/op), want %d", len(tape), total, float64(total)/float64(len(tape)), want)
	}
}

type pickedSearches struct{ found, other, none search }

// foundAndNot picks from the tape two multi-hop searches that find a route
// and one that finds none after expanding states without the reach rule.
// (With it, the reachability pass alone settles every no-route search of
// the tape.)
func foundAndNot(t *testing.T, g *ad.Graph, db *policy.DB, tape []policy.Request) pickedSearches {
	t.Helper()
	var p pickedSearches
	have := 0
	for _, req := range tape {
		s := search{req: req, from: req.Src, prev: ad.Invalid}
		res := s.unpruned(g, db)
		switch {
		case res.Found && len(res.Path) >= 4 && have&1 == 0:
			p.found, have = s, have|1
		case res.Found && len(res.Path) >= 4 && have&2 == 0:
			p.other, have = s, have|2
		case !res.Found && res.Expanded > 1 && have&4 == 0:
			p.none, have = s, have|4
		}
		if have == 7 {
			return p
		}
	}
	t.Fatalf("benchmark world has no such searches (have %03b)", have)
	return p
}

package synthesis

// Differential harness for the search kernel (PR 8's method: a retained
// reference, lockstep seeded random inputs, the seed printed on
// divergence). referenceFindRouteFrom is the constrained Dijkstra exactly
// as it stood before the pooled kernel replaced it: two maps keyed by
// state, container/heap, the adjacency sorted on every expansion, a copied
// Term per candidate. The kernel must return the same Path, Cost, Found
// and — because (cost, seq) is a total order and neighbours are visited in
// the same order — the same Expanded. Replay one world with
// `-run TestDifferentialFindRoute -diffseed N`.

import (
	"container/heap"
	"flag"
	"math/rand"
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

func referenceFindRouteFrom(g *ad.Graph, db *policy.DB, req policy.Request, from, prev ad.ID) Result {
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
			if next == st.prev {
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

// search is one kernel input: a request and the position it is searched
// from (from == req.Src, prev == Invalid for a source search).
type search struct {
	req        policy.Request
	from, prev ad.ID
}

func (s search) run(g *ad.Graph, db *policy.DB) Result {
	return FindRouteFrom(g, db, s.req, s.from, s.prev)
}

func (s search) reference(g *ad.Graph, db *policy.DB) Result {
	return referenceFindRouteFrom(g, db, s.req, s.from, s.prev)
}

func sameResult(a, b Result) bool {
	return a.Found == b.Found && a.Cost == b.Cost && a.Expanded == b.Expanded && a.Path.Equal(b.Path)
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

// randomSearch draws a source search, a continuation from a transit
// position (the lshh path: from != src, with or without an entry hop), or
// one of the degenerate cases: from == dst, unknown endpoints.
func randomSearch(rng *rand.Rand, g *ad.Graph, ids []ad.ID) search {
	pick := func() ad.ID {
		if rng.Intn(25) == 0 {
			return ids[len(ids)-1] + ad.ID(1+rng.Intn(3)) // unknown AD
		}
		return ids[rng.Intn(len(ids))]
	}
	req := policy.Request{Src: pick(), Dst: pick(), Hour: uint8(rng.Intn(24))}
	if rng.Intn(3) == 0 { // classes above 0 are not offered everywhere
		req.QOS, req.UCI = policy.QOS(rng.Intn(3)), policy.UCI(rng.Intn(2))
	}
	s := search{req: req, from: req.Src, prev: ad.Invalid}
	switch rng.Intn(4) {
	case 0:
		s.from = pick()
		if nbs := g.Neighbors(s.from); len(nbs) > 0 && rng.Intn(4) > 0 {
			s.prev = nbs[rng.Intn(len(nbs))]
		}
	case 1:
		if rng.Intn(5) == 0 {
			s.from = req.Dst
		}
	}
	return s
}

func TestDifferentialFindRoute(t *testing.T) {
	seeds := make([]int64, 40)
	for i := range seeds {
		seeds[i] = int64(i)*31 + 7
	}
	if *diffSeed >= 0 {
		seeds = []int64{*diffSeed}
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		g, db := diffWorld(seed, rng)
		ids := g.IDs()
		var down []ad.Link
		for step := 0; step < 300; step++ {
			// Churn the adjacency between searches: the kernel reads the
			// graph's own sorted view, the reference sorts a copy.
			switch rng.Intn(12) {
			case 0:
				if links := g.Links(); len(links) > 0 {
					l := links[rng.Intn(len(links))]
					g.RemoveLink(l.A, l.B)
					down = append(down, l)
				}
			case 1:
				if len(down) > 0 {
					i := rng.Intn(len(down))
					if err := g.AddLink(down[i]); err != nil {
						t.Fatalf("seed %d step %d: restore %v: %v", seed, step, down[i], err)
					}
					down = append(down[:i], down[i+1:]...)
				}
			case 2:
				g = g.Clone()
			}
			s := randomSearch(rng, g, ids)
			got, want := s.run(g, db), s.reference(g, db)
			if !sameResult(got, want) {
				t.Fatalf("seed %d step %d: %v from %v (entered from %v) diverged:\nkernel    %+v\nreference %+v",
					seed, step, s.req, s.from, s.prev, got, want)
			}
		}
	}
}

// TestScratchReuse: a search that stops at the goal leaves its queue and
// table behind in the pooled scratch; the next search out of the same pool,
// for a different request, must not see any of it.
func TestScratchReuse(t *testing.T) {
	g, db, tape := benchWorld()
	searches := foundAndNot(t, g, db, tape)
	dirty := false
	for try := 0; try < 100 && !dirty; try++ {
		searches.found.run(g, db)
		sc := scratchPool.Get().(*scratch)
		dirty = len(sc.heap) > 0 && len(sc.nodes) > 0
		scratchPool.Put(sc)
		for _, s := range []search{searches.none, searches.other, searches.found} {
			if got, want := s.run(g, db), s.reference(g, db); !sameResult(got, want) {
				t.Fatalf("%v after an early exit diverged:\nkernel    %+v\nreference %+v", s.req, got, want)
			}
		}
	}
	if !dirty && !racecheck.Enabled { // under -race the pool drops puts at random
		t.Fatal("never saw the scratch of an early-exit search come back out of the pool")
	}
}

// TestScratchEpochWrap: when the epoch counter wraps, index stamps written
// 2^32 searches ago must not read as current (they name nodes that are gone).
func TestScratchEpochWrap(t *testing.T) {
	var s scratch
	s.reset()
	st := state{cur: 3, prev: 2}
	s.relax(st, 5, -1) // stamped with epoch 1
	s.epoch = ^uint32(0)
	s.reset()
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	if n, fresh := s.relax(st, 9, -1); n != 0 || !fresh || s.nodes[0].dist != 9 {
		t.Fatalf("state of a wrapped-away search still indexed: node %d fresh %v", n, fresh)
	}
}

// TestConcurrentSearches: goroutines searching one graph share nothing but
// the pool. Run under -race by `make check`.
func TestConcurrentSearches(t *testing.T) {
	g, db, _ := benchWorld()
	rng := rand.New(rand.NewSource(5))
	ids := g.IDs()
	tape := make([]search, 400)
	want := make([]Result, len(tape))
	for i := range tape {
		tape[i] = randomSearch(rng, g, ids)
		want[i] = tape[i].reference(g, db)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < len(tape); n++ {
				i := (n*7 + w*53) % len(tape)
				if got := tape[i].run(g, db); !sameResult(got, want[i]) {
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
	searches := foundAndNot(t, g, db, tape)
	if n := testing.AllocsPerRun(200, func() { searches.none.run(g, db) }); n != 0 {
		t.Errorf("no-route search: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { searches.found.run(g, db) }); n != 1 {
		t.Errorf("found search: %v allocs/op, want 1 (the path)", n)
	}
}

type pickedSearches struct{ found, other, none search }

// foundAndNot picks from the tape two multi-hop searches that find a route
// and one that expands states and finds none.
func foundAndNot(t *testing.T, g *ad.Graph, db *policy.DB, tape []policy.Request) pickedSearches {
	t.Helper()
	var p pickedSearches
	have := 0
	for _, req := range tape {
		s := search{req: req, from: req.Src, prev: ad.Invalid}
		res := s.reference(g, db)
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

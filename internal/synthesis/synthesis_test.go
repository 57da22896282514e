package synthesis

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

// diamond builds:
//
//	    2
//	  /   \
//	1       4
//	  \   /
//	    3
//
// with 1 and 4 stubs, 2 and 3 transit. Link 1-2,2-4 cost 1; 1-3,3-4 cost 1.
func diamond(t *testing.T) (*ad.Graph, ad.ID, ad.ID, ad.ID, ad.ID) {
	t.Helper()
	g := ad.NewGraph()
	n1 := g.AddAD("s", ad.Stub, ad.Campus)
	n2 := g.AddAD("t1", ad.Transit, ad.Regional)
	n3 := g.AddAD("t2", ad.Transit, ad.Regional)
	n4 := g.AddAD("d", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: n1, B: n2, Cost: 1}, {A: n2, B: n4, Cost: 1},
		{A: n1, B: n3, Cost: 1}, {A: n3, B: n4, Cost: 1},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return g, n1, n2, n3, n4
}

func TestFindRouteBasic(t *testing.T) {
	g, s, t2, _, d := diamond(t)
	db := policy.OpenDB(g)
	res := Compile(g, db).FindRoute(policy.Request{Src: s, Dst: d})
	if !res.Found {
		t.Fatal("no route found in open diamond")
	}
	if res.Path.Hops() != 2 {
		t.Errorf("path = %v, want 2 hops", res.Path)
	}
	if res.Expanded == 0 {
		t.Error("no expansions recorded")
	}
	// Cost: 2 links + 1 transit term (cost 1) = 3.
	if res.Cost != 3 {
		t.Errorf("cost = %d, want 3", res.Cost)
	}
	_ = t2
}

func TestFindRouteRespectsTermCost(t *testing.T) {
	g, s, t2, t3, d := diamond(t)
	db := policy.NewDB()
	expensive := policy.OpenTerm(t2, 0)
	expensive.Cost = 10
	db.Add(expensive)
	cheap := policy.OpenTerm(t3, 0)
	cheap.Cost = 1
	db.Add(cheap)
	res := Compile(g, db).FindRoute(policy.Request{Src: s, Dst: d})
	if !res.Found || !res.Path.Contains(t3) {
		t.Errorf("route should prefer cheap transit %v, got %v", t3, res.Path)
	}
}

func TestFindRouteSourceRestriction(t *testing.T) {
	g, s, t2, t3, d := diamond(t)
	db := policy.NewDB()
	// t2 only carries traffic from some other AD; t3 carries s.
	term2 := policy.OpenTerm(t2, 0)
	term2.Sources = policy.SetOf(d)
	db.Add(term2)
	term3 := policy.OpenTerm(t3, 0)
	term3.Sources = policy.SetOf(s)
	db.Add(term3)
	res := Compile(g, db).FindRoute(policy.Request{Src: s, Dst: d})
	if !res.Found || !res.Path.Contains(t3) || res.Path.Contains(t2) {
		t.Errorf("route = %v, want via %v only", res.Path, t3)
	}
	// Reverse direction must use t2.
	res = Compile(g, db).FindRoute(policy.Request{Src: d, Dst: s})
	if !res.Found || !res.Path.Contains(t2) {
		t.Errorf("reverse route = %v, want via %v", res.Path, t2)
	}
}

func TestFindRouteNoRoute(t *testing.T) {
	g, s, _, _, d := diamond(t)
	db := policy.NewDB() // no terms at all: no transit possible
	res := Compile(g, db).FindRoute(policy.Request{Src: s, Dst: d})
	if res.Found {
		t.Errorf("route found with empty policy DB: %v", res.Path)
	}
}

func TestFindRouteAvoidCriteria(t *testing.T) {
	g, s, t2, t3, d := diamond(t)
	db := policy.OpenDB(g)
	db.SetCriteria(s, policy.Criteria{Avoid: policy.SetOf(t2)})
	res := Compile(g, db).FindRoute(policy.Request{Src: s, Dst: d})
	if !res.Found || res.Path.Contains(t2) {
		t.Errorf("route = %v, must avoid %v", res.Path, t2)
	}
	if !res.Path.Contains(t3) {
		t.Errorf("route = %v, want via %v", res.Path, t3)
	}
	// Avoiding both transits leaves no route.
	db.SetCriteria(s, policy.Criteria{Avoid: policy.SetOf(t2, t3)})
	if res := Compile(g, db).FindRoute(policy.Request{Src: s, Dst: d}); res.Found {
		t.Errorf("route found despite avoiding all transits: %v", res.Path)
	}
}

func TestFindRouteMaxHops(t *testing.T) {
	// Line 1-2-3-4-5: 4 hops needed; budget of 3 must fail.
	g := ad.NewGraph()
	ids := make([]ad.ID, 5)
	for i := range ids {
		class := ad.Transit
		if i == 0 || i == 4 {
			class = ad.Stub
		}
		ids[i] = g.AddAD("n", class, ad.Regional)
	}
	for i := 0; i+1 < 5; i++ {
		if err := g.AddLink(ad.Link{A: ids[i], B: ids[i+1], Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.OpenDB(g)
	db.SetCriteria(ids[0], policy.Criteria{MaxHops: 3})
	if res := Compile(g, db).FindRoute(policy.Request{Src: ids[0], Dst: ids[4]}); res.Found {
		t.Errorf("route found beyond hop budget: %v", res.Path)
	}
	db.SetCriteria(ids[0], policy.Criteria{MaxHops: 4})
	if res := Compile(g, db).FindRoute(policy.Request{Src: ids[0], Dst: ids[4]}); !res.Found {
		t.Error("route not found within hop budget")
	}
}

func TestFindRoutePrevNextConstraints(t *testing.T) {
	// Terms that depend on the previous AD: t2 only accepts traffic
	// entering from s. Build s-t2-t3-d line plus s-t3 link, so t3 can be
	// entered either from t2 or directly from s.
	g := ad.NewGraph()
	s := g.AddAD("s", ad.Stub, ad.Campus)
	t2 := g.AddAD("t2", ad.Transit, ad.Regional)
	t3 := g.AddAD("t3", ad.Transit, ad.Regional)
	d := g.AddAD("d", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: s, B: t2, Cost: 1}, {A: t2, B: t3, Cost: 1},
		{A: t3, B: d, Cost: 1}, {A: s, B: t3, Cost: 10},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.NewDB()
	db.Add(policy.OpenTerm(t2, 0))
	// t3 only admits traffic arriving directly from the source s.
	restricted := policy.OpenTerm(t3, 0)
	restricted.PrevADs = policy.SetOf(s)
	db.Add(restricted)
	res := Compile(g, db).FindRoute(policy.Request{Src: s, Dst: d})
	if !res.Found {
		t.Fatal("no route")
	}
	// The cheap path s-t2-t3-d is illegal (t3 entered from t2), so the
	// expensive s-t3-d must be chosen.
	want := ad.Path{s, t3, d}
	if !res.Path.Equal(want) {
		t.Errorf("path = %v, want %v", res.Path, want)
	}
}

func TestFindRouteSelfAndMissing(t *testing.T) {
	g, s, _, _, _ := diamond(t)
	db := policy.OpenDB(g)
	res := Compile(g, db).FindRoute(policy.Request{Src: s, Dst: s})
	if !res.Found || len(res.Path) != 1 {
		t.Errorf("self route = %+v", res)
	}
	if res := Compile(g, db).FindRoute(policy.Request{Src: 99, Dst: s}); res.Found {
		t.Error("route from unknown AD found")
	}
	if res := Compile(g, db).FindRoute(policy.Request{Src: s, Dst: 99}); res.Found {
		t.Error("route to unknown AD found")
	}
}

func TestEnumeratePaths(t *testing.T) {
	g, s, _, _, d := diamond(t)
	db := policy.OpenDB(g)
	paths := EnumeratePaths(g, db, policy.Request{Src: s, Dst: d}, EnumerateConfig{})
	if len(paths) != 2 {
		t.Fatalf("paths = %v, want 2", paths)
	}
	for _, p := range paths {
		if !db.PathLegal(p, policy.Request{Src: s, Dst: d}) {
			t.Errorf("enumerated illegal path %v", p)
		}
	}
}

func TestEnumeratePathsMaxPaths(t *testing.T) {
	g, s, _, _, d := diamond(t)
	db := policy.OpenDB(g)
	paths := EnumeratePaths(g, db, policy.Request{Src: s, Dst: d}, EnumerateConfig{MaxPaths: 1})
	if len(paths) != 1 {
		t.Errorf("MaxPaths=1 returned %d paths", len(paths))
	}
}

func TestEnumeratePathsHonorsPolicy(t *testing.T) {
	g, s, t2, _, d := diamond(t)
	db := policy.NewDB()
	db.Add(policy.OpenTerm(t2, 0)) // only t2 is transit-enabled
	paths := EnumeratePaths(g, db, policy.Request{Src: s, Dst: d}, EnumerateConfig{})
	if len(paths) != 1 || !paths[0].Contains(t2) {
		t.Errorf("paths = %v, want exactly one via %v", paths, t2)
	}
}

func TestEnumerateSelf(t *testing.T) {
	g, s, _, _, _ := diamond(t)
	db := policy.OpenDB(g)
	paths := EnumeratePaths(g, db, policy.Request{Src: s, Dst: s}, EnumerateConfig{})
	if len(paths) != 1 || len(paths[0]) != 1 {
		t.Errorf("self paths = %v", paths)
	}
}

func TestFindRouteAgreesWithOracleOnFigure1(t *testing.T) {
	topo := topology.Figure1()
	g := topo.Graph
	db := policy.OpenDB(g)
	ids := g.IDs()
	for _, src := range ids {
		for _, dst := range ids {
			if src == dst {
				continue
			}
			req := policy.Request{Src: src, Dst: dst}
			found := Compile(g, db).FindRoute(req).Found
			oracle := len(EnumeratePaths(g, db, req, EnumerateConfig{MaxPaths: 1})) > 0
			if found != oracle {
				t.Errorf("%v: FindRoute=%v oracle=%v", req, found, oracle)
			}
		}
	}
}

func TestFindRouteOptimalityAgainstEnumeration(t *testing.T) {
	// Exhaustive check on a restricted policy set: Dijkstra's result must
	// match the cheapest enumerated path cost.
	topo := topology.Figure1()
	g := topo.Graph
	db := policy.Generate(g, policy.GenConfig{Seed: 5, SourceRestrictionProb: 0.5, SourceFraction: 0.5, MaxTermCost: 4})
	req := policy.Request{}
	ids := g.IDs()
	for _, src := range ids {
		for _, dst := range ids {
			if src == dst {
				continue
			}
			req.Src, req.Dst = src, dst
			res := Compile(g, db).FindRoute(req)
			paths := EnumeratePaths(g, db, req, EnumerateConfig{})
			if res.Found != (len(paths) > 0) {
				t.Fatalf("%v: found=%v enumerated=%d", req, res.Found, len(paths))
			}
			if !res.Found {
				continue
			}
			best := uint32(1 << 31)
			for _, p := range paths {
				if c, ok := db.PathCost(g, p, req); ok && c < best {
					best = c
				}
			}
			if res.Cost != best {
				t.Errorf("%v: dijkstra cost %d, oracle best %d (path %v)", req, res.Cost, best, res.Path)
			}
		}
	}
}

func TestKShortest(t *testing.T) {
	g, s, t2, t3, d := diamond(t)
	db := policy.NewDB()
	cheap := policy.OpenTerm(t2, 0)
	cheap.Cost = 1
	db.Add(cheap)
	dear := policy.OpenTerm(t3, 0)
	dear.Cost = 5
	db.Add(dear)
	paths := KShortest(g, db, policy.Request{Src: s, Dst: d}, 2, 0)
	if len(paths) != 2 {
		t.Fatalf("k=2 returned %d", len(paths))
	}
	if !paths[0].Contains(t2) || !paths[1].Contains(t3) {
		t.Errorf("order wrong: %v", paths)
	}
	one := KShortest(g, db, policy.Request{Src: s, Dst: d}, 1, 0)
	if len(one) != 1 {
		t.Errorf("k=1 returned %d", len(one))
	}
}

func TestOnDemandStrategy(t *testing.T) {
	g, s, _, _, d := diamond(t)
	db := policy.OpenDB(g)
	st := NewOnDemand(g, db)
	if st.Name() != "on-demand" {
		t.Errorf("name = %q", st.Name())
	}
	p, ok := st.Route(policy.Request{Src: s, Dst: d})
	if !ok || p == nil {
		t.Fatal("route failed")
	}
	if _, ok := st.Route(policy.Request{Src: s, Dst: 99}); ok {
		t.Error("route to unknown AD succeeded")
	}
	stats := st.Stats()
	if stats.Misses != 2 || stats.Failures != 1 || stats.OnDemandExpansions == 0 {
		t.Errorf("stats = %+v", stats)
	}
	st.Invalidate() // no-op, must not panic
}

func TestPrecomputedStrategy(t *testing.T) {
	g, s, _, _, d := diamond(t)
	db := policy.OpenDB(g)
	reqs := []policy.Request{{Src: s, Dst: d}}
	st := NewPrecomputed(g, db, reqs)
	if st.Name() != "precomputed" {
		t.Errorf("name = %q", st.Name())
	}
	if _, ok := st.Route(policy.Request{Src: s, Dst: d}); !ok {
		t.Error("precomputed request missed")
	}
	if _, ok := st.Route(policy.Request{Src: d, Dst: s}); ok {
		t.Error("unprecomputed request hit")
	}
	stats := st.Stats()
	if stats.Hits != 1 || stats.Misses != 1 || stats.PrecomputeExpansions == 0 || stats.CacheEntries != 1 {
		t.Errorf("stats = %+v", stats)
	}
	before := stats.PrecomputeExpansions
	st.Invalidate()
	if st.Stats().PrecomputeExpansions <= before {
		t.Error("Invalidate did not recompute")
	}
	if _, ok := st.Route(policy.Request{Src: s, Dst: d}); !ok {
		t.Error("route lost after invalidate")
	}
}

func TestHybridStrategy(t *testing.T) {
	g, s, _, _, d := diamond(t)
	db := policy.OpenDB(g)
	st := NewHybrid(g, db, []policy.Request{{Src: s, Dst: d}})
	if st.Name() != "hybrid" {
		t.Errorf("name = %q", st.Name())
	}
	// Hot request: hit.
	if _, ok := st.Route(policy.Request{Src: s, Dst: d}); !ok {
		t.Error("hot request failed")
	}
	// Cold request: a search, and — strategies remember nothing — the same
	// search again on the repeat, with the same answer.
	first, ok := st.Route(policy.Request{Src: d, Dst: s})
	if !ok {
		t.Error("cold request failed")
	}
	work := st.Stats().OnDemandExpansions
	second, ok := st.Route(policy.Request{Src: d, Dst: s})
	if !ok || !second.Equal(first) {
		t.Errorf("repeated cold request = (%v,%v), first answer %v", second, ok, first)
	}
	stats := st.Stats()
	if stats.Hits != 1 || stats.Misses != 2 || stats.OnDemandExpansions != 2*work {
		t.Errorf("stats = %+v (want 1 hot hit, 2 cold misses of %d expansions each)", stats, work)
	}
	if stats.CacheEntries != 1 {
		t.Errorf("table = %d entries, want 1 (hot only): searched routes must not be kept", stats.CacheEntries)
	}
	st.Invalidate()
	if got := st.Stats().CacheEntries; got != 1 {
		t.Errorf("after invalidate table = %d, want 1 (hot only)", got)
	}
}

// TestMemo: the experiment-side memo answers a repeated cold request once,
// counts it with the table's hits and entries, and forgets on Invalidate.
func TestMemo(t *testing.T) {
	g, s, _, _, d := diamond(t)
	db := policy.OpenDB(g)
	st := NewMemo(NewHybrid(g, db, []policy.Request{{Src: s, Dst: d}}))
	cold := policy.Request{Src: d, Dst: s}
	st.Route(policy.Request{Src: s, Dst: d})
	first, ok := st.Route(cold)
	if !ok {
		t.Fatal("cold request failed")
	}
	second, ok := st.Route(cold)
	if !ok || !second.Equal(first) {
		t.Fatalf("memoized answer = (%v,%v), want %v", second, ok, first)
	}
	if _, ok := st.Route(policy.Request{Src: s, Dst: 99}); ok {
		t.Fatal("route to unknown AD succeeded")
	}
	st.Route(policy.Request{Src: s, Dst: 99})
	stats := st.Stats()
	if stats.Hits != 2 || stats.Misses != 3 || stats.Failures != 2 || stats.CacheEntries != 2 {
		t.Errorf("stats = %+v (want hits: 1 hot + 1 memo; misses: 1 cold + 2 unroutable, never memoized; entries: 1 hot + 1 memo)", stats)
	}
	st.Invalidate()
	if got := st.Stats().CacheEntries; got != 1 {
		t.Errorf("after Invalidate entries = %d, want 1 (hot only)", got)
	}
	st.Route(cold)
	st.InvalidateScoped(LinkUpChange(s, d))
	if got := st.Stats().CacheEntries; got != 1 {
		t.Errorf("after InvalidateScoped entries = %d, want 1 (hot only)", got)
	}
	if st.Route(cold); st.Stats().Misses != 5 {
		t.Errorf("purged key served without a search: %+v", st.Stats())
	}
}

// TestTableEntryNotServedAtIllegalHour is the regression test for the
// hour-blind table: entries are keyed without the hour, so a route computed
// at noon over terms valid 9-17 was served at 3 am, when no legal route
// exists.
func TestTableEntryNotServedAtIllegalHour(t *testing.T) {
	g, s, t2, t3, d := diamond(t)
	db := policy.NewDB()
	for _, transit := range []ad.ID{t2, t3} {
		term := policy.OpenTerm(transit, 0)
		term.Hours = policy.HourWindow{Start: 9, End: 17}
		db.Add(term)
	}
	noon := policy.Request{Src: s, Dst: d, Hour: 12}
	night := policy.Request{Src: s, Dst: d, Hour: 3}
	afternoon := policy.Request{Src: s, Dst: d, Hour: 16}
	if Compile(g, db).FindRoute(night).Found {
		t.Fatal("fixture: a route exists at 3 am")
	}
	for _, st := range []Strategy{
		NewHybrid(g, db, []policy.Request{noon}),
		NewPrecomputed(g, db, []policy.Request{noon}),
	} {
		if _, ok := st.Route(noon); !ok || st.Stats().Hits != 1 {
			t.Fatalf("%s: noon request not served from the table: %+v", st.Name(), st.Stats())
		}
		if p, ok := st.Route(night); ok {
			t.Errorf("%s: served %v at 3 am (PathLegal = %v)", st.Name(), p, db.PathLegal(p, night))
		}
		// Another hour inside the window: the noon entry is legal, so it
		// is still a table hit.
		if p, ok := st.Route(afternoon); !ok || !db.PathLegal(p, afternoon) || st.Stats().Hits != 2 {
			t.Errorf("%s: 4 pm request = (%v,%v), stats %+v; want the noon entry as a hit", st.Name(), p, ok, st.Stats())
		}
	}
}

func TestStrategiesAgreeOnAvailability(t *testing.T) {
	topo := topology.Generate(topology.Config{Seed: 20, LateralProb: 0.3})
	g := topo.Graph
	db := policy.Generate(g, policy.GenConfig{Seed: 21, SourceRestrictionProb: 0.4, SourceFraction: 0.5})
	var reqs []policy.Request
	ids := g.IDs()
	for i := 0; i < len(ids); i++ {
		for j := 0; j < len(ids); j += 3 {
			if ids[i] != ids[j] {
				reqs = append(reqs, policy.Request{Src: ids[i], Dst: ids[j]})
			}
		}
	}
	pre := NewPrecomputed(g, db, reqs)
	dem := NewOnDemand(g, db)
	hyb := NewHybrid(g, db, reqs[:len(reqs)/2])
	for _, req := range reqs {
		_, a := pre.Route(req)
		_, b := dem.Route(req)
		_, c := hyb.Route(req)
		if a != b || b != c {
			t.Errorf("%v: availability disagrees pre=%v dem=%v hyb=%v", req, a, b, c)
		}
	}
}

func TestPrunedStrategy(t *testing.T) {
	topo := topology.Generate(topology.Config{Seed: 44, LateralProb: 0.2})
	g := topo.Graph
	db := policy.OpenDB(g)
	var stubs []ad.ID
	for _, info := range g.ADs() {
		if info.Class == ad.Stub {
			stubs = append(stubs, info.ID)
		}
	}
	st := NewPruned(g, db, stubs, 2)
	if st.Name() != "pruned" {
		t.Errorf("name = %q", st.Name())
	}
	stats := st.Stats()
	if stats.PrecomputeExpansions == 0 || stats.CacheEntries == 0 {
		t.Fatalf("no precompute work done: %+v", stats)
	}
	// Nearby destination (the stub's own regional, 1 hop): table hit.
	nearReq := policy.Request{Src: stubs[0], Dst: g.Neighbors(stubs[0])[0], Hour: 12}
	if _, ok := st.Route(nearReq); !ok {
		t.Fatal("near route failed")
	}
	if st.Stats().Hits == 0 {
		t.Error("near destination was not precomputed")
	}
	// Far destination: searched on demand, every time.
	var far ad.ID
	for _, info := range g.ADs() {
		req := policy.Request{Src: stubs[0], Dst: info.ID, Hour: 12}
		res := Compile(g, db).FindRoute(req)
		if res.Found && res.Path.Hops() > 2 {
			far = info.ID
		}
	}
	if far == ad.Invalid {
		t.Skip("no far destination in this topology")
	}
	missesBefore := st.Stats().Misses
	if _, ok := st.Route(policy.Request{Src: stubs[0], Dst: far, Hour: 12}); !ok {
		t.Fatal("far route failed")
	}
	if st.Stats().Misses != missesBefore+1 {
		t.Error("far destination unexpectedly precomputed")
	}
	entries := st.Stats().CacheEntries
	st.Route(policy.Request{Src: stubs[0], Dst: far, Hour: 12})
	if got := st.Stats(); got.Misses != missesBefore+2 || got.CacheEntries != entries {
		t.Errorf("repeated far request was not a second search: %+v", got)
	}
	// Invalidate keeps counters, rebuilds neighbourhood.
	pre := st.Stats().PrecomputeExpansions
	st.Invalidate()
	if st.Stats().PrecomputeExpansions <= pre {
		t.Error("Invalidate did not recompute")
	}
	// Pruned precompute must be cheaper than precompute-everything.
	all := trafficgen.AllPairs(g, false, 0, 0)
	full := NewPrecomputed(g, db, all)
	if st.Stats().PrecomputeExpansions >= full.Stats().PrecomputeExpansions {
		t.Errorf("pruned precompute %d >= full %d",
			st.Stats().PrecomputeExpansions, full.Stats().PrecomputeExpansions)
	}
}

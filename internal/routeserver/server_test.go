package routeserver

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/synthesis"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

// testbed builds a moderate internet, a restricted policy regime, and a
// Zipf-skewed workload with class spread.
func testbed(seed int64, requests int) (*ad.Graph, *policy.DB, []policy.Request) {
	topo := topology.Generate(topology.Config{
		Seed: seed, Backbones: 2, RegionalsPerBackbone: 3,
		CampusesPerParent: 3, LateralProb: 0.25, BypassProb: 0.1,
	})
	g := topo.Graph
	db := policy.Generate(g, policy.GenConfig{
		Seed: seed + 1, SourceRestrictionProb: 0.4, SourceFraction: 0.5,
	})
	workload := trafficgen.Generate(g, trafficgen.Config{
		Seed: seed + 2, Requests: requests, StubsOnly: true,
		Model: "zipf", ZipfS: 1.4, QOSClasses: 2, UCIClasses: 2,
	})
	return g, db, workload
}

func uniqueKeys(reqs []policy.Request) int {
	seen := map[Key]bool{}
	for _, r := range reqs {
		seen[r] = true
	}
	return len(seen)
}

func TestServerServesOracleResults(t *testing.T) {
	g, db, workload := testbed(11, 200)
	srv := New(synthesis.NewOnDemand(g, db), Config{})
	results := ServePhase(srv, workload, 4)
	for i, req := range workload {
		want := synthesis.Compile(g, db).FindRoute(req)
		if results[i].Found != want.Found {
			t.Fatalf("req %v: Found = %v, oracle %v", req, results[i].Found, want.Found)
		}
		if want.Found && !results[i].Path.Equal(want.Path) {
			t.Fatalf("req %v: path %v, oracle %v", req, results[i].Path, want.Path)
		}
	}
	snap := srv.Snapshot()
	if snap.Queries != uint64(len(workload)) {
		t.Fatalf("Queries = %d, want %d", snap.Queries, len(workload))
	}
	if snap.Hits+snap.Misses+snap.Coalesced != snap.Queries {
		t.Fatalf("counter accounting broken: %+v", snap)
	}
	if want := (snap.Queries + latencySample - 1) / latencySample; snap.Latency.Count != want {
		t.Fatalf("latency observations %d, want %d: one query in %d of %d", snap.Latency.Count, want, latencySample, snap.Queries)
	}
}

// TestCoalescingReducesComputations is the E20 acceptance check for
// single-CPU machines: on a Zipf workload the cached/coalesced server must
// run >= 2x fewer synthesis computations than naive per-request on-demand
// synthesis (which runs one per request), at identical results.
func TestCoalescingReducesComputations(t *testing.T) {
	g, db, workload := testbed(42, 600)
	srv := New(synthesis.NewOnDemand(g, db), Config{})
	results := ServePhase(srv, workload, 8)

	for i, req := range workload {
		want := synthesis.Compile(g, db).FindRoute(req)
		if results[i].Found != want.Found ||
			(want.Found && !results[i].Path.Equal(want.Path)) {
			t.Fatalf("req %v: server diverged from oracle", req)
		}
	}

	snap := srv.Snapshot()
	naive := uint64(len(workload)) // on-demand runs one synthesis per request
	if snap.Misses*2 > naive {
		t.Fatalf("synthesis computations %d, naive %d: reduction < 2x (%d unique keys)",
			snap.Misses, naive, uniqueKeys(workload))
	}
	// With negative caching and no eviction pressure, computations are
	// exactly the unique keys (each computed once, by cache or coalescing).
	if uk := uint64(uniqueKeys(workload)); snap.Misses != uk {
		t.Fatalf("computations = %d, unique keys = %d: some key computed twice", snap.Misses, uk)
	}
}

func TestServerCacheHitPath(t *testing.T) {
	g, db, workload := testbed(7, 50)
	srv := New(synthesis.NewOnDemand(g, db), Config{})
	req := workload[0]
	r1 := srv.Query(req)
	r2 := srv.Query(req)
	if !r1.Path.Equal(r2.Path) || r1.Found != r2.Found {
		t.Fatal("repeated query returned different results")
	}
	snap := srv.Snapshot()
	if snap.Misses != 1 || snap.Hits != 1 {
		t.Fatalf("want 1 miss + 1 hit, got %+v", snap)
	}
	if st := srv.StrategyStats(); st.Misses != 1 {
		t.Fatalf("strategy ran %d computations, want 1", st.Misses)
	}
}

func TestServerNegativeCaching(t *testing.T) {
	g, db, _ := testbed(13, 10)
	// A request from an AD that does not exist can never be routed.
	req := policy.Request{Src: ad.ID(1 << 30), Dst: g.IDs()[0], Hour: 12}
	srv := New(synthesis.NewOnDemand(g, db), Config{})
	for i := 0; i < 5; i++ {
		if res := srv.Query(req); res.Found {
			t.Fatal("unroutable request found a route")
		}
	}
	snap := srv.Snapshot()
	if snap.Misses != 1 {
		t.Fatalf("failure recomputed: %d computations, want 1 (negative caching)", snap.Misses)
	}
	if snap.Failures != 5 {
		t.Fatalf("Failures = %d, want 5", snap.Failures)
	}
}

func TestServerInvalidationReflectsTopologyChange(t *testing.T) {
	// Diamond: 1-2-4 and 1-3-4; fail the in-use branch and re-query.
	g := ad.NewGraph()
	n1 := g.AddAD("s", ad.Stub, ad.Campus)
	n2 := g.AddAD("t1", ad.Transit, ad.Regional)
	n3 := g.AddAD("t2", ad.Transit, ad.Regional)
	n4 := g.AddAD("d", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: n1, B: n2, Cost: 1}, {A: n2, B: n4, Cost: 1},
		{A: n1, B: n3, Cost: 2}, {A: n3, B: n4, Cost: 2},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.OpenDB(g)
	req := policy.Request{Src: n1, Dst: n4, Hour: 12}

	srv := New(synthesis.NewOnDemand(g, db), Config{})
	r1 := srv.Query(req)
	if !r1.Found || !r1.Path.Contains(n2) {
		t.Fatalf("initial route should take the cheap branch via %v: %v", n2, r1.Path)
	}
	srv.Mutate(func() { g.RemoveLink(n2, n4) })
	r2 := srv.Query(req)
	if !r2.Found || !r2.Path.Contains(n3) {
		t.Fatalf("post-failure route should take %v: %v", n3, r2.Path)
	}
	snap := srv.Snapshot()
	if snap.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", snap.Invalidations)
	}
	if srv.Generation() != 1 {
		t.Fatalf("Generation = %d, want 1", srv.Generation())
	}
	if snap.Misses != 2 {
		t.Fatalf("stale entry served or recompute missing: %+v", snap)
	}
}

// TestServerDeterministicAtAnyParallelism is the E20 determinism criterion:
// identical query results, and exactly one synthesis per distinct key,
// regardless of client parallelism.
func TestServerDeterministicAtAnyParallelism(t *testing.T) {
	g, db, workload := testbed(23, 300)
	distinct := make(map[Key]struct{})
	for _, req := range workload {
		distinct[req] = struct{}{}
	}
	strategies := map[string]func() synthesis.Strategy{
		"on-demand": func() synthesis.Strategy { return synthesis.NewOnDemand(g, db) },
		"hybrid":    func() synthesis.Strategy { return synthesis.NewHybrid(g, db, workload[:20]) },
		"pruned": func() synthesis.Strategy {
			return synthesis.NewPrunedConfig(g, db, g.IDs(), synthesis.PrunedConfig{
				HopRadius: 2, QOSClasses: 2, UCIClasses: 2,
			})
		},
	}
	for name, mk := range strategies {
		t.Run(name, func(t *testing.T) {
			var ref []Result
			for _, clients := range []int{1, 2, 4, 8} {
				srv := New(mk(), Config{})
				got := ServePhase(srv, workload, clients)
				if m := srv.Snapshot(); m.Misses != uint64(len(distinct)) {
					t.Fatalf("clients=%d: %d syntheses for %d distinct keys", clients, m.Misses, len(distinct))
				}
				if ref == nil {
					ref = got
					continue
				}
				for i := range got {
					if got[i].Found != ref[i].Found || !got[i].Path.Equal(ref[i].Path) {
						t.Fatalf("clients=%d: request %d diverged: %v vs %v",
							clients, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// TestServingStateIsBounded: the server's capacity bounds every route the
// serving stack remembers. The strategy keeps its precomputed hot table and
// nothing else, however many distinct keys stream through (it used to keep
// a second, unbounded copy of every route it searched for).
func TestServingStateIsBounded(t *testing.T) {
	g, _, _ := testbed(41, 1)
	db := policy.OpenDB(g)
	keys := trafficgen.AllPairs(g, true, 0, 0)
	const capacity = 16
	if len(keys) <= 4*capacity {
		t.Fatalf("fixture: only %d distinct keys", len(keys))
	}
	srv := New(synthesis.NewHybrid(g, db, keys[:8]), Config{Capacity: capacity})
	hot := srv.StrategyStats().CacheEntries
	if hot != 8 {
		t.Fatalf("hot table = %d entries, want 8", hot)
	}
	for _, res := range ServePhase(srv, keys, 4) {
		if !res.Found {
			t.Fatalf("no route under open policy: %+v", res)
		}
	}
	if got := srv.StrategyStats().CacheEntries; got != hot {
		t.Errorf("strategy holds %d entries after %d distinct keys, want the hot table's %d", got, len(keys), hot)
	}
	if got := srv.CacheLen(); got > capacity {
		t.Errorf("server cache holds %d entries, capacity %d", got, capacity)
	}
}

// TestServerConcurrentChurn hammers the server with concurrent clients
// while invalidations and topology mutations land mid-flight. Run under
// -race (make check) this is the serving layer's race-cleanness assertion.
func TestServerConcurrentChurn(t *testing.T) {
	g, db, workload := testbed(31, 400)
	links := g.Links()
	srv := New(synthesis.NewHybrid(g, db, workload[:10]), Config{Capacity: 256})

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(workload); i += 4 {
				srv.Query(workload[i])
			}
		}()
	}
	// Churn goroutine: remove and re-add a lateral link, plus policy adds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		l := links[len(links)-1]
		for i := 0; i < 6; i++ {
			if i%2 == 0 {
				srv.Mutate(func() { g.RemoveLink(l.A, l.B) })
			} else {
				srv.Mutate(func() {
					if err := g.AddLink(l); err != nil {
						panic(err)
					}
				})
			}
		}
	}()
	wg.Wait()

	snap := srv.Snapshot()
	if snap.Queries != uint64(len(workload)) {
		t.Fatalf("Queries = %d, want %d", snap.Queries, len(workload))
	}
	if snap.Hits+snap.Misses+snap.Coalesced != snap.Queries {
		t.Fatalf("counter accounting broken under churn: %+v", snap)
	}
	if snap.Invalidations != 6 {
		t.Fatalf("Invalidations = %d, want 6", snap.Invalidations)
	}
	// Every query must still be answered consistently with *some*
	// generation's topology; spot-check final state answers.
	req := workload[0]
	want := synthesis.Compile(g, db).FindRoute(req)
	got := srv.Query(req)
	if got.Found != want.Found {
		t.Fatalf("final-state query inconsistent: %v vs oracle %v", got, want)
	}
}

func TestServerCapacityEviction(t *testing.T) {
	g, db, workload := testbed(17, 300)
	srv := New(synthesis.NewOnDemand(g, db), Config{Capacity: 8})
	ServePhase(srv, workload, 4)
	snap := srv.Snapshot()
	if snap.Evictions == 0 {
		t.Fatalf("tiny cache reported no evictions: %+v", snap)
	}
	if n := srv.CacheLen(); n > 8 {
		t.Fatalf("cache grew past capacity: %d > 8", n)
	}
}

// TestCapacityIsTheBound: a cache of capacity N holds N distinct keys with
// no eviction, and key N+1 evicts exactly one. The keys move Src and Dst
// together, so a cache that placed them by a few bits of their hash would
// crowd them into a few places and evict early.
func TestCapacityIsTheBound(t *testing.T) {
	for _, n := range []int{8, 100, 1000} {
		srv := New(stubStrategy{}, Config{Capacity: n})
		keyAt := func(i int) policy.Request { return policy.Request{Src: ad.ID(1 + i), Dst: ad.ID(5000 + i)} }
		for i := 0; i < n; i++ {
			srv.Query(keyAt(i))
		}
		if got, ev := srv.CacheLen(), srv.Snapshot().Evictions; got != n || ev != 0 {
			t.Fatalf("capacity %d: %d distinct keys left %d cached after %d evictions", n, n, got, ev)
		}
		srv.Query(keyAt(n))
		if got, ev := srv.CacheLen(), srv.Snapshot().Evictions; got != n || ev != 1 {
			t.Fatalf("capacity %d: key %d left %d cached after %d evictions, want %d after 1", n, n+1, got, ev, n)
		}
	}
}

func TestLoadGenRunWithChurn(t *testing.T) {
	g, db, workload := testbed(5, 500)
	links := g.Links()
	lateral := links[len(links)-1]
	srv := New(synthesis.NewOnDemand(g, db), Config{})
	rep := Run(InProcess(srv), workload, LoadConfig{
		Clients: 4,
		Events: []Event{
			{After: 0.3, Fire: func() error {
				srv.Mutate(func() { g.RemoveLink(lateral.A, lateral.B) })
				return nil
			}},
			{After: 0.6, Fire: func() error {
				var err error
				srv.Mutate(func() { err = g.AddLink(lateral) })
				return err
			}},
			// An event past the end of the run still fires.
			{After: 7, Fire: func() error { return errors.New("refused") }},
		},
	})
	if rep.Requests != len(workload) || rep.Served+rep.NoRoute != rep.Requests || rep.Errors != 0 {
		t.Fatalf("report accounting broken: %+v", rep)
	}
	if got := srv.Snapshot().Invalidations; got != 2 {
		t.Fatalf("Invalidations = %d, want 2", got)
	}
	if len(rep.EventErrors) != 1 || rep.EventErrors[0].Error() != "event 3: refused" {
		t.Fatalf("EventErrors = %v, want the third event's refusal", rep.EventErrors)
	}
	if rep.Elapsed <= 0 || rep.QPS <= 0 {
		t.Fatalf("no timing recorded: %+v", rep)
	}
	if rep.Latency.P99 < rep.Latency.P50 || rep.Latency.P50 <= 0 {
		t.Fatalf("latency digest out of order: %+v", rep.Latency)
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.normalize()
	if c.Capacity != 1<<16 || c.Workers <= 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	srv := New(synthesis.NewOnDemand(ad.NewGraph(), policy.NewDB()), Config{Capacity: -1})
	if srv.tab.capacity != 0 {
		t.Fatal("negative capacity should mean an unbounded table")
	}
}

func ExampleServer() {
	topo := topology.Figure1()
	g := topo.Graph
	db := policy.OpenDB(g)
	srv := New(synthesis.NewOnDemand(g, db), Config{})
	ids := g.IDs()
	res := srv.Query(policy.Request{Src: ids[len(ids)-1], Dst: ids[0], Hour: 12})
	fmt.Println(res.Found)
	// Output: true
}

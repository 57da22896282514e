package routeserver

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/synthesis"
)

// scopedWorld builds a diamond with a cheap transit (t1), an expensive
// detour (t2), a second source homed only on t2, and an isolated AD for
// negative entries.
//
//	src ─ t1 ─ dst   (cost 2)
//	src ─ t2 ─ dst   (cost 10)
//	src2 ─ t2        (src2 reaches dst only through t2)
//	iso              (unreachable)
func scopedWorld(t *testing.T) (g *ad.Graph, db *policy.DB, srv *Server,
	src, t1, t2, dst, src2, iso ad.ID) {
	t.Helper()
	g = ad.NewGraph()
	src = g.AddAD("src", ad.Stub, ad.Campus)
	t1 = g.AddAD("t1", ad.Transit, ad.Regional)
	t2 = g.AddAD("t2", ad.Transit, ad.Regional)
	dst = g.AddAD("dst", ad.Stub, ad.Campus)
	src2 = g.AddAD("src2", ad.Stub, ad.Campus)
	iso = g.AddAD("iso", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: src, B: t1, Cost: 1}, {A: t1, B: dst, Cost: 1},
		{A: src, B: t2, Cost: 5}, {A: t2, B: dst, Cost: 5},
		{A: src2, B: t2, Cost: 1},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db = policy.OpenDB(g)
	srv = New(synthesis.NewOnDemand(g, db), Config{})
	return g, db, srv, src, t1, t2, dst, src2, iso
}

func TestMutateScopedLinkDownEvictsOnlyCrossing(t *testing.T) {
	g, _, srv, src, t1, _, dst, src2, iso := scopedWorld(t)
	rCheap := policy.Request{Src: src, Dst: dst}
	rVia2 := policy.Request{Src: src2, Dst: dst}
	rNeg := policy.Request{Src: src, Dst: iso}

	if res := srv.Query(rCheap); !res.Path.Equal(ad.Path{src, t1, dst}) {
		t.Fatalf("warm route = %+v", res)
	}
	srv.Query(rVia2)
	if res := srv.Query(rNeg); res.Found {
		t.Fatalf("iso AD routable: %+v", res)
	}

	evicted, retained := srv.MutateScoped(
		synthesis.LinkDownChange(t1, dst),
		func() { g.RemoveLink(t1, dst) })
	if evicted != 1 || retained != 2 {
		t.Fatalf("evicted %d retained %d, want 1 and 2", evicted, retained)
	}

	before := srv.Snapshot()
	if res := srv.Query(rCheap); !res.Found || res.Path.Transits(t1) {
		t.Fatalf("post-failure route = %+v", res)
	}
	// The unaffected positive and the negative are served from cache: a
	// link failure cannot create routes, so negatives survive.
	srv.Query(rVia2)
	srv.Query(rNeg)
	after := srv.Snapshot()
	if after.Misses != before.Misses+1 {
		t.Fatalf("misses %d -> %d, want exactly one recompute", before.Misses, after.Misses)
	}
	if after.Invalidations != 0 || after.ScopedMutations != 1 || after.ScopedEvicted != 1 {
		t.Fatalf("counters %+v", after)
	}
}

func TestMutateScopedLinkUpRetainsLegalEvictsNegatives(t *testing.T) {
	g, db, srv, src, t1, t2, dst, _, iso := scopedWorld(t)
	rCheap := policy.Request{Src: src, Dst: dst}
	rNeg := policy.Request{Src: src, Dst: iso}

	srv.MutateScoped(synthesis.LinkDownChange(t1, dst), func() { g.RemoveLink(t1, dst) })
	if res := srv.Query(rCheap); !res.Path.Equal(ad.Path{src, t2, dst}) {
		t.Fatalf("detour = %+v", res)
	}
	srv.Query(rNeg)

	l := ad.Link{A: t1, B: dst, Cost: 1}
	evicted, retained := srv.MutateScoped(
		synthesis.LinkUpChange(t1, dst),
		func() {
			if err := g.AddLink(l); err != nil {
				t.Error(err)
			}
		})
	if evicted != 1 || retained != 1 {
		t.Fatalf("evicted %d retained %d, want the negative out and the detour kept", evicted, retained)
	}

	// The retained detour keeps serving: legal, no longer optimal.
	res := srv.Query(rCheap)
	if !res.Path.Equal(ad.Path{src, t2, dst}) {
		t.Fatalf("retained route = %+v, want the detour", res)
	}
	if !res.Path.Valid(g) || !db.PathLegal(res.Path, rCheap) {
		t.Fatalf("retained route %v is illegal", res.Path)
	}
	// A full invalidation restores optimality.
	srv.Mutate(nil)
	if res := srv.Query(rCheap); !res.Path.Equal(ad.Path{src, t1, dst}) {
		t.Fatalf("post-invalidate route = %+v, want the cheap path back", res)
	}
}

func TestMutateScopedPolicyEvictsByTerm(t *testing.T) {
	_, db, srv, src, t1, t2, dst, src2, _ := scopedWorld(t)
	rVia1 := policy.Request{Src: src, Dst: dst}
	rVia2 := policy.Request{Src: src2, Dst: dst}
	srv.Query(rVia1)
	srv.Query(rVia2)

	// Dropping t2's terms kills only the route transiting t2.
	ch := synthesis.PolicyChangeOf(db.DiffTerms(t2, nil))
	if ch.Broadens || len(ch.RemovedTerms) == 0 {
		t.Fatalf("dropping terms is not a narrowing: %+v", ch)
	}
	evicted, retained := srv.MutateScoped(ch, func() { db.SetTerms(t2, nil) })
	if evicted != 1 || retained != 1 {
		t.Fatalf("evicted %d retained %d, want only the t2 route out", evicted, retained)
	}

	before := srv.Snapshot()
	if res := srv.Query(rVia1); !res.Path.Equal(ad.Path{src, t1, dst}) {
		t.Fatalf("unaffected route = %+v", res)
	}
	if srv.Snapshot().Misses != before.Misses {
		t.Fatal("unaffected entry was recomputed")
	}
	if res := srv.Query(rVia2); res.Found {
		t.Fatalf("route through term-less transit survived: %+v", res)
	}
}

// slowStrategy widens the synthesis window so in-flight computations and
// coalesced waiters reliably straddle concurrent scoped mutations.
type slowStrategy struct {
	synthesis.Strategy
	delay time.Duration
}

func (s slowStrategy) Route(req policy.Request) (ad.Path, bool) {
	time.Sleep(s.delay)
	return s.Strategy.Route(req)
}

// TestScopedChurnStress is the race-detector workout for the scoped path:
// concurrent clients query while a churn goroutine interleaves scoped link
// failures/restorations, scoped policy changes, and full bumps. The slow
// strategy keeps misses in flight across mutations, exercising claims
// pending across a mutation and the insert-under-mutation path.
func TestScopedChurnStress(t *testing.T) {
	g, db, workload := testbed(23, 300)
	target := ad.ID(0)
	for _, info := range g.ADs() {
		if info.Class == ad.Transit && len(db.Terms(info.ID)) > 0 {
			target = info.ID
			break
		}
	}
	if target == 0 {
		t.Fatal("no transit with terms")
	}
	originalTerms := append([]policy.Term(nil), db.Terms(target)...)
	links := g.Links()
	lat := links[len(links)-1]

	srv := New(slowStrategy{synthesis.NewOnDemand(g, db), 20 * time.Microsecond}, Config{})

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := c; i < len(workload); i += 4 {
					srv.Query(workload[i])
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			srv.MutateScoped(synthesis.LinkDownChange(lat.A, lat.B),
				func() { g.RemoveLink(lat.A, lat.B) })
			srv.MutateScoped(synthesis.LinkUpChange(lat.A, lat.B),
				func() {
					if err := g.AddLink(lat); err != nil {
						panic(err)
					}
				})
			ch := synthesis.PolicyChangeOf(db.DiffTerms(target, nil))
			srv.MutateScoped(ch, func() { db.SetTerms(target, nil) })
			srv.MutateScoped(
				synthesis.PolicyChangeOf(db.DiffTerms(target, originalTerms)),
				func() { db.SetTerms(target, originalTerms) })
			srv.Mutate(nil) // interleave a full bump
		}
	}()
	wg.Wait()

	snap := srv.Snapshot()
	if snap.Queries != uint64(3*len(workload)) {
		t.Fatalf("Queries = %d, want %d", snap.Queries, 3*len(workload))
	}
	if snap.Hits+snap.Misses+snap.Coalesced != snap.Queries {
		t.Fatalf("counter accounting broken under scoped churn: %+v", snap)
	}
	if snap.ScopedMutations != 16 || snap.Invalidations != 4 {
		t.Fatalf("mutation counters %+v, want 16 scoped and 4 full", snap)
	}

	// The world is back in its initial state; after a full bump every
	// answer must match the oracle exactly.
	srv.Mutate(nil)
	for _, req := range workload[:50] {
		want := synthesis.Compile(g, db).FindRoute(req)
		got := srv.Query(req)
		if got.Found != want.Found || (want.Found && !got.Path.Equal(want.Path)) {
			t.Fatalf("req %v: %+v vs oracle %+v", req, got, want)
		}
	}
}

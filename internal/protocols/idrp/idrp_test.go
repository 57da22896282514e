package idrp

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/dvcore"
	"repro/internal/policy"
	"repro/internal/racecheck"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

var _ core.System = (*System)(nil)

func seconds(s int) sim.Time { return sim.Time(s) * sim.Second }

func TestConvergesAndDeliversOpenPolicy(t *testing.T) {
	topo := topology.Figure1()
	db := policy.OpenDB(topo.Graph)
	s := New(topo.Graph, db, Config{})
	if _, ok := s.Converge(seconds(300)); !ok {
		t.Fatal("did not converge")
	}
	oracle := core.Oracle{G: topo.Graph, DB: db}
	for _, src := range topo.Graph.IDs() {
		for _, dst := range topo.Graph.IDs() {
			if src == dst {
				continue
			}
			req := policy.Request{Src: src, Dst: dst}
			out := s.Route(req)
			if !out.Delivered {
				t.Errorf("%v->%v not delivered", src, dst)
				continue
			}
			if out.Looped {
				t.Errorf("%v->%v looped", src, dst)
			}
			if !oracle.Legal(out.Path, req) {
				t.Errorf("%v->%v illegal: %v", src, dst, out.Path)
			}
		}
	}
}

func TestLoopAvoidanceViaPath(t *testing.T) {
	// On a cyclic topology the AD-path check must keep routes loop-free
	// even without any partial ordering.
	topo := topology.Generate(topology.Config{Seed: 9, LateralProb: 0.5, BypassProb: 0.3})
	db := policy.OpenDB(topo.Graph)
	s := New(topo.Graph, db, Config{})
	if _, ok := s.Converge(seconds(600)); !ok {
		t.Fatal("did not converge")
	}
	for _, src := range topo.Graph.IDs() {
		for _, dst := range topo.Graph.IDs() {
			if src == dst {
				continue
			}
			out := s.Route(policy.Request{Src: src, Dst: dst})
			if out.Looped {
				t.Errorf("%v->%v looped: %v", src, dst, out.Path)
			}
		}
	}
}

// sourceRestrictedNet builds the paper's single-route hiding scenario:
//
//	     t1 (sources: s1 only, cheap)
//	   /    \
//	src      d
//	   \    /
//	     t2 (sources: all, expensive)
//
// where src's selected route at intermediate ADs can hide the legal
// alternative for other sources.
func twoTransitNet(t *testing.T) (*ad.Graph, ad.ID, ad.ID, ad.ID, ad.ID, ad.ID) {
	t.Helper()
	g := ad.NewGraph()
	s1 := g.AddAD("s1", ad.Stub, ad.Campus)
	s2 := g.AddAD("s2", ad.Stub, ad.Campus)
	t1 := g.AddAD("t1", ad.Transit, ad.Regional)
	t2 := g.AddAD("t2", ad.Transit, ad.Regional)
	d := g.AddAD("d", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: s1, B: t1, Cost: 1}, {A: s2, B: t1, Cost: 1},
		{A: s1, B: t2, Cost: 1}, {A: s2, B: t2, Cost: 1},
		{A: t1, B: d, Cost: 1}, {A: t2, B: d, Cost: 1},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return g, s1, s2, t1, t2, d
}

func TestSourceSpecificAttributesEnforced(t *testing.T) {
	g, s1, s2, t1, t2, d := twoTransitNet(t)
	db := policy.NewDB()
	term1 := policy.OpenTerm(t1, 0)
	term1.Sources = policy.SetOf(s1) // t1 carries only s1
	term1.Cost = 1
	db.Add(term1)
	term2 := policy.OpenTerm(t2, 0)
	term2.Cost = 5 // open but expensive
	db.Add(term2)

	s := New(g, db, Config{})
	if _, ok := s.Converge(seconds(300)); !ok {
		t.Fatal("did not converge")
	}
	oracle := core.Oracle{G: g, DB: db}
	// s1 can use the cheap t1 route.
	out1 := s.Route(policy.Request{Src: s1, Dst: d})
	if !out1.Delivered || !oracle.Legal(out1.Path, policy.Request{Src: s1, Dst: d}) {
		t.Errorf("s1: %+v", out1)
	}
	if !out1.Path.Contains(t1) {
		t.Errorf("s1 path = %v, want via cheap t1", out1.Path)
	}
	// s2 must not be delivered via t1; the legal route via t2 exists.
	out2 := s.Route(policy.Request{Src: s2, Dst: d})
	if out2.Delivered {
		if out2.Path.Contains(t1) {
			t.Errorf("s2 delivered through forbidden t1: %v", out2.Path)
		}
		if !oracle.Legal(out2.Path, policy.Request{Src: s2, Dst: d}) {
			t.Errorf("s2 delivered illegally: %v", out2.Path)
		}
	}
}

func TestSingleRouteHidesLegalAlternative(t *testing.T) {
	// Make the source-restricted transit the cheap one so every node
	// selects it as best; single-route mode then leaves s2 with no
	// usable route at the source even though t2 is legal for it.
	g, s1, s2, t1, t2, d := twoTransitNet(t)
	db := policy.NewDB()
	term1 := policy.OpenTerm(t1, 0)
	term1.Sources = policy.SetOf(s1)
	term1.Cost = 1
	db.Add(term1)
	term2 := policy.OpenTerm(t2, 0)
	term2.Cost = 50
	db.Add(term2)

	single := New(g, db, Config{})
	single.Converge(seconds(300))
	multi := New(g, db, Config{MultiRoute: 4})
	multi.Converge(seconds(300))

	req := policy.Request{Src: s2, Dst: d}
	outSingle := single.Route(req)
	outMulti := multi.Route(req)
	if !outMulti.Delivered {
		t.Errorf("multi-route variant failed to deliver s2: %+v", outMulti)
	}
	if outSingle.Delivered && outMulti.Delivered {
		t.Log("single-route also delivered (selection coincided); availability equal here")
	}
	// Multi-route must never do worse, and state must be larger.
	if multi.StateEntries() <= single.StateEntries() {
		t.Errorf("multi-route state %d <= single %d", multi.StateEntries(), single.StateEntries())
	}
	_ = t2
}

func TestWithdrawalOnLinkFailure(t *testing.T) {
	g, s1, _, t1, t2, d := twoTransitNet(t)
	db := policy.OpenDB(g)
	s := New(g, db, Config{})
	s.Converge(seconds(300))
	req := policy.Request{Src: s1, Dst: d}
	if out := s.Route(req); !out.Delivered {
		t.Fatal("initial delivery failed")
	}
	// Fail both links of whichever transit s1's path uses; re-converge.
	out := s.Route(req)
	used := t1
	if out.Path.Contains(t2) {
		used = t2
	}
	s.FailLink(s1, used)
	if _, ok := s.Converge(seconds(600)); !ok {
		t.Fatal("did not reconverge")
	}
	out = s.Route(req)
	if !out.Delivered {
		t.Errorf("no alternate after failure: %+v", out)
	}
	if out.Path.Contains(used) && out.Path[1] == used {
		t.Errorf("path still begins with failed link: %v", out.Path)
	}
}

func TestPartitionWithdrawsRoutes(t *testing.T) {
	// Line s - t - d; failing t-d must withdraw d everywhere.
	g := ad.NewGraph()
	src := g.AddAD("s", ad.Stub, ad.Campus)
	tr := g.AddAD("t", ad.Transit, ad.Regional)
	d := g.AddAD("d", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{{A: src, B: tr}, {A: tr, B: d}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.OpenDB(g)
	s := New(g, db, Config{})
	s.Converge(seconds(300))
	if out := s.Route(policy.Request{Src: src, Dst: d}); !out.Delivered {
		t.Fatal("initial delivery failed")
	}
	s.FailLink(tr, d)
	s.Converge(seconds(600))
	if out := s.Route(policy.Request{Src: src, Dst: d}); out.Delivered {
		t.Errorf("delivered across partition: %v", out.Path)
	}
	if paths := s.node(src).adv[s.ctx.Index(dvcore.Key{Dest: d})]; len(paths) != 0 {
		t.Errorf("stale selected routes at src: %v", paths)
	}
}

func TestUCIAttributes(t *testing.T) {
	// Transit admits only UCI 0; UCI 1 traffic is dropped.
	g := ad.NewGraph()
	src := g.AddAD("s", ad.Stub, ad.Campus)
	tr := g.AddAD("t", ad.Transit, ad.Regional)
	d := g.AddAD("d", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{{A: src, B: tr}, {A: tr, B: d}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.NewDB()
	term := policy.OpenTerm(tr, 0)
	term.UCI = policy.ClassSetOf(0)
	db.Add(term)
	s := New(g, db, Config{})
	s.Converge(seconds(300))
	if out := s.Route(policy.Request{Src: src, Dst: d, UCI: 0}); !out.Delivered {
		t.Error("UCI 0 not delivered")
	}
	if out := s.Route(policy.Request{Src: src, Dst: d, UCI: 1}); out.Delivered {
		t.Errorf("UCI 1 delivered despite exclusion: %v", out.Path)
	}
}

func TestSelectedRoutesAccessor(t *testing.T) {
	g, s1, _, _, _, d := twoTransitNet(t)
	db := policy.OpenDB(g)
	s := New(g, db, Config{})
	s.Converge(seconds(300))
	routes := s.node(s1).adv[s.ctx.Index(dvcore.Key{Dest: d})]
	if len(routes) != 1 {
		t.Fatalf("selected = %v, want 1 route", routes)
	}
	if p := routes[0].path; p.Dest() != d || !g.HasLink(s1, p.Source()) {
		t.Errorf("selected path wrong: %v from %v", p, s1)
	}
}

func TestNameAndDeterminism(t *testing.T) {
	g, _, _, _, _, _ := twoTransitNet(t)
	db := policy.OpenDB(g)
	if New(g, db, Config{}).Name() != "idrp" {
		t.Error("single-route name wrong")
	}
	if New(g, db, Config{MultiRoute: 2}).Name() != "idrp-multi" {
		t.Error("multi-route name wrong")
	}
	run := func() uint64 {
		topo := topology.Figure1()
		s := New(topo.Graph, policy.OpenDB(topo.Graph), Config{})
		s.Converge(seconds(300))
		return s.Network().Stats.MessagesSent
	}
	if run() != run() {
		t.Error("nondeterministic")
	}
}

func TestDestinationExportFilter(t *testing.T) {
	// A transit whose terms cover only destination d1 must not advertise
	// routes toward d2 (the §5.2 export-policy filter).
	g := ad.NewGraph()
	src := g.AddAD("src", ad.Stub, ad.Campus)
	tr := g.AddAD("tr", ad.Transit, ad.Regional)
	d1 := g.AddAD("d1", ad.Stub, ad.Campus)
	d2 := g.AddAD("d2", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{{A: src, B: tr}, {A: tr, B: d1}, {A: tr, B: d2}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.NewDB()
	term := policy.OpenTerm(tr, 0)
	term.Dests = policy.SetOf(d1)
	db.Add(term)
	s := New(g, db, Config{})
	s.Converge(seconds(300))
	if out := s.Route(policy.Request{Src: src, Dst: d1}); !out.Delivered {
		t.Errorf("allowed destination: %+v", out)
	}
	if out := s.Route(policy.Request{Src: src, Dst: d2}); out.Delivered {
		t.Errorf("filtered destination delivered: %v", out.Path)
	}
	// The filtered route never even reaches src's RIB.
	if paths := s.node(src).adv[s.ctx.Index(dvcore.Key{Dest: d2})]; len(paths) != 0 {
		t.Errorf("filtered route advertised to src: %v", paths)
	}
}

func TestPrevNextConstraintsInAttributes(t *testing.T) {
	// A transit that only accepts traffic entering from a specific
	// neighbor: IDRP's attribute model folds this into whether the route
	// is advertised at all toward the other neighbor.
	g := ad.NewGraph()
	a := g.AddAD("a", ad.Stub, ad.Campus)
	b := g.AddAD("b", ad.Stub, ad.Campus)
	tr := g.AddAD("tr", ad.Transit, ad.Regional)
	d := g.AddAD("d", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{{A: a, B: tr}, {A: b, B: tr}, {A: tr, B: d}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.NewDB()
	term := policy.OpenTerm(tr, 0)
	term.Sources = policy.SetOf(a) // only a's traffic
	db.Add(term)
	s := New(g, db, Config{})
	s.Converge(seconds(300))
	oracle := core.Oracle{G: g, DB: db}
	outA := s.Route(policy.Request{Src: a, Dst: d})
	if !outA.Delivered || !oracle.Legal(outA.Path, policy.Request{Src: a, Dst: d}) {
		t.Errorf("a: %+v", outA)
	}
	if outB := s.Route(policy.Request{Src: b, Dst: d}); outB.Delivered {
		t.Errorf("b delivered despite source exclusion: %v", outB.Path)
	}
}

// TestMultiRouteDistinctByValue pins multi-route selection's distinctness
// test to set membership, not to how a set was built: a candidate whose
// sources hold the same members (given in another order) and whose UCI is
// the same as a better route's is not selected, while a universal set and
// an explicit one, or equal sets under different UCIs, stay distinct.
func TestMultiRouteDistinctByValue(t *testing.T) {
	g, s1, s2, t1, t2, d := twoTransitNet(t)
	s := New(g, policy.OpenDB(g), Config{MultiRoute: 4})
	n := s.node(s1)
	k := int32(s.ctx.Index(dvcore.Key{Dest: d}))
	cand := func(via ad.ID, metric uint32, sources policy.ADSet, uci policy.ClassSet) route {
		return route{path: ad.Path{via, d}, metric: metric, sources: sources, uci: uci, from: via}
	}
	n.cands[k] = []route{
		cand(t1, 2, policy.SetOf(s1, s2, 9), policy.AllClasses),
		cand(t2, 5, policy.SetOf(9, s2, s1, s2), policy.AllClasses),
	}
	if sel := n.selectRoutes(k); len(sel) != 1 || sel[0].from != t1 {
		t.Fatalf("equal attributes: selected %+v, want only the cheaper route via t1", sel)
	}
	n.cands[k][1] = cand(t2, 5, policy.Universal(), policy.AllClasses)
	if sel := n.selectRoutes(k); len(sel) != 2 {
		t.Fatalf("universal vs explicit sources: selected %d routes, want 2", len(sel))
	}
	n.cands[k][1] = cand(t2, 5, policy.SetOf(s2, 9, s1), policy.ClassSetOf(0))
	if sel := n.selectRoutes(k); len(sel) != 2 {
		t.Fatalf("equal sources, different UCI: selected %d routes, want 2", len(sel))
	}
}

// TestReselectValueEqualIsNoChange checks that a candidate re-announced with
// a value-equal source set — built from other members, in another order —
// is no change: nothing is marked for re-advertisement.
func TestReselectValueEqualIsNoChange(t *testing.T) {
	g, s1, s2, t1, _, d := twoTransitNet(t)
	s := New(g, policy.OpenDB(g), Config{})
	n := s.node(s1)
	k := int32(s.ctx.Index(dvcore.Key{Dest: d}))
	r := route{path: ad.Path{t1, d}, metric: 2, sources: policy.SetOf(s1, s2), uci: policy.AllClasses, from: t1}
	n.cands[k] = []route{r}
	n.adv[k] = slices.Clone(n.selectRoutes(k))
	r.sources = policy.SetOf(s2, 7, s1).Intersect(policy.SetOf(s1, s2))
	n.cands[k] = []route{r}
	n.reselect(s.nw, []int32{k})
	if dirty := n.dirty.Take(); len(dirty) != 0 || n.flushPending {
		t.Errorf("value-equal sources re-advertised: dirty %v", dirty)
	}
	r.sources = policy.SetOf(s1)
	n.cands[k] = []route{r}
	n.reselect(s.nw, []int32{k})
	if !slices.Contains(n.dirty.Take(), k) {
		t.Error("narrowed sources not re-advertised")
	}
}

// TestComparePathsMatchesStringOrder holds the tie-break comparator to the
// order it replaced, strings.Compare on the paths' String forms: byte-wise
// on "AD12>AD3", where AD10 sorts before AD9, a path before its extensions,
// '>' after every digit, "AD?" (ad.Invalid) after every number and
// "<empty>" first. Hand cases pin those corners; seeded random pairs with
// shared prefixes cover the rest (-run TestComparePaths, seed in the log on
// failure).
func TestComparePathsMatchesStringOrder(t *testing.T) {
	check := func(a, b ad.Path) {
		t.Helper()
		if got, want := comparePaths(a, b), strings.Compare(a.String(), b.String()); got != want {
			t.Errorf("comparePaths(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
	hand := []ad.Path{
		nil, {}, {ad.Invalid}, {ad.Invalid, 1}, {1, ad.Invalid},
		{9}, {10}, {1}, {12}, {2}, {1, 2}, {1, 2, 3}, {1, 12}, {12, 3}, {1, 2, 12},
		{100}, {1000}, {99}, {4294967295}, {429496729}, {4294967295, 1},
	}
	for _, a := range hand {
		for _, b := range hand {
			check(a, b)
		}
	}
	const seed = 1
	rng := rand.New(rand.NewSource(seed))
	id := func() ad.ID {
		switch rng.Intn(4) {
		case 0:
			return ad.ID(rng.Intn(3)) // 0 is ad.Invalid
		case 1:
			return ad.ID(rng.Intn(20))
		case 2:
			return ad.ID(rng.Intn(2000))
		default:
			return ad.ID(rng.Uint32())
		}
	}
	randPath := func() ad.Path {
		p := make(ad.Path, rng.Intn(6))
		for i := range p {
			p[i] = id()
		}
		return p
	}
	for i := 0; i < 3000; i++ {
		a := randPath()
		// Half the pairs share a prefix, so the comparison reaches later
		// hops and the ends of paths.
		b := randPath()
		if rng.Intn(2) == 0 {
			b = append(slices.Clone(a[:rng.Intn(len(a)+1)]), b...)
		}
		check(a, b)
		check(b, a)
	}
	if t.Failed() {
		t.Logf("random pairs drawn from seed %d", seed)
	}
}

// TestAllocsComparePaths: the tie-break builds no strings.
func TestAllocsComparePaths(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	a, b := ad.Path{1, 12, 3, 4294967295}, ad.Path{1, 12, 3, 42}
	if n := testing.AllocsPerRun(100, func() { _ = comparePaths(a, b) }); n != 0 {
		t.Errorf("comparePaths: %v allocs, want 0", n)
	}
}

// TestAllocsWarmReceive: an update whose source sets the system has
// received before, re-offering the routes the neighbour offered last time,
// is decoded, filed and reselected without allocating.
func TestAllocsWarmReceive(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := topology.Figure1().Graph
	s := New(g, policy.OpenDB(g), Config{})
	if _, ok := s.Converge(seconds(60)); !ok {
		t.Fatal("did not converge")
	}
	ids := g.IDs()
	n, from := s.node(ids[0]), g.Neighbors(ids[0])[0]
	upd := &wire.PathVector{}
	for _, dst := range ids {
		if dst != n.id && dst != from {
			upd.Routes = append(upd.Routes, wire.PVRoute{
				Dest: dst, Metric: 1, Path: ad.Path{from, dst},
				AllowedSources: policy.SetOf(n.id, from, dst%3), UCI: policy.AllClasses,
			})
		}
	}
	frame := wire.Marshal(upd)
	n.Receive(s.nw, from, frame)
	s.nw.Engine.Run()
	if allocs := testing.AllocsPerRun(100, func() { n.Receive(s.nw, from, frame) }); allocs != 0 {
		t.Errorf("warm Receive: %v allocs, want 0", allocs)
	}
}

// TestConvergesWhenAFlushOverflowsOneFrame converges IDRP on a 438-AD
// internet where one flush's dirty contexts once made a path-vector update
// whose body overran the 16-bit length field, which panicked the simulator.
// The update is split at context boundaries, and the routes it leads to
// still deliver only legally.
func TestConvergesWhenAFlushOverflowsOneFrame(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("over 150 MB at convergence, and slow under the race detector")
	}
	topo := topology.Generate(topology.Config{
		Seed: 42, Backbones: 6, RegionalsPerBackbone: 8, MetrosPerRegional: 2,
		CampusesPerParent: 3, LateralProb: 0.05, BypassProb: 0.05,
	})
	g := topo.Graph
	if n := g.NumADs(); n != 438 {
		t.Fatalf("%d ADs, want 438", n)
	}
	db := policy.Generate(g, policy.GenConfig{Seed: 43, SourceRestrictionProb: 0.3, SourceFraction: 0.5})
	s := New(g, db, Config{})
	if _, ok := s.Converge(600 * sim.Second); !ok {
		t.Fatal("did not converge")
	}
	oracle := core.Oracle{G: g, DB: db}
	ids := g.IDs()
	delivered := 0
	for i := 0; i < len(ids); i += 7 {
		req := policy.Request{Src: ids[i], Dst: ids[len(ids)-1-i]}
		if out := s.Route(req); out.Delivered {
			delivered++
			if !oracle.Legal(out.Path, req) {
				t.Errorf("%v delivered over illegal %v", req, out.Path)
			}
		}
	}
	if delivered == 0 {
		t.Error("no sampled request delivered")
	}
}

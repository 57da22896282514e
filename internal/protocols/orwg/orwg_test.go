package orwg

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

var _ core.System = (*System)(nil)

func seconds(s int) sim.Time { return sim.Time(s) * sim.Second }

func converged(t *testing.T, g *ad.Graph, db *policy.DB, cfg Config) *System {
	t.Helper()
	s := New(g, db, cfg)
	if _, ok := s.Converge(seconds(300)); !ok {
		t.Fatal("did not converge")
	}
	return s
}

func TestDeliversAllPairsOpenPolicy(t *testing.T) {
	topo := topology.Figure1()
	db := policy.OpenDB(topo.Graph)
	s := converged(t, topo.Graph, db, Config{})
	oracle := core.Oracle{G: topo.Graph, DB: db}
	for _, src := range topo.Graph.IDs() {
		for _, dst := range topo.Graph.IDs() {
			if src == dst {
				continue
			}
			req := policy.Request{Src: src, Dst: dst}
			out := s.Route(req)
			if !out.Delivered {
				t.Errorf("%v->%v: %+v", src, dst, out)
				continue
			}
			if !oracle.Legal(out.Path, req) {
				t.Errorf("%v->%v illegal path %v", src, dst, out.Path)
			}
			if out.SetupMessages == 0 {
				t.Errorf("%v->%v no setup messages recorded", src, dst)
			}
		}
	}
}

func TestSetupRejectedByLocalPolicy(t *testing.T) {
	// The source's flooded view is doctored to believe a transit is open
	// while the transit's true policy refuses: the PG must reject at
	// setup (validation against local policy, not flooded state).
	g := ad.NewGraph()
	src := g.AddAD("src", ad.Stub, ad.Campus)
	tr := g.AddAD("tr", ad.Transit, ad.Regional)
	d := g.AddAD("d", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{{A: src, B: tr}, {A: tr, B: d}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.NewDB()
	term := policy.OpenTerm(tr, 7)
	term.Sources = policy.SetOf(d) // src is NOT allowed
	db.Add(term)
	s := converged(t, g, db, Config{})
	// Manually inject a setup claiming term 7 for src's traffic.
	srcNode := s.node(src)
	handle := srcNode.newHandle()
	req := policy.Request{Src: src, Dst: d}
	route := ad.Path{src, tr, d}
	srcNode.startSetup(s.nw, handle, req, route, []policy.Key{{Advertiser: tr, Serial: 7}})
	s.nw.Engine.Run()
	if _, ok := srcNode.flows[handle]; ok {
		t.Fatal("setup established despite local policy refusal")
	}
	if srcNode.lastFailCode != wire.SetupNoPolicy {
		t.Errorf("fail code = %d, want SetupNoPolicy", srcNode.lastFailCode)
	}
	if srcNode.lastFailedAt != tr {
		t.Errorf("failed at %v, want %v", srcNode.lastFailedAt, tr)
	}
}

func TestSourceSpecificPolicyHonored(t *testing.T) {
	// ORWG achieves what ECMA/IDRP-single cannot: full availability under
	// source-specific policy, because the source synthesizes from global
	// knowledge.
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
	db := policy.NewDB()
	term1 := policy.OpenTerm(t1, 0)
	term1.Sources = policy.SetOf(s1)
	term1.Cost = 1
	db.Add(term1)
	term2 := policy.OpenTerm(t2, 0)
	term2.Cost = 50
	db.Add(term2)

	s := converged(t, g, db, Config{})
	oracle := core.Oracle{G: g, DB: db}
	out1 := s.Route(policy.Request{Src: s1, Dst: d})
	if !out1.Delivered || !out1.Path.Contains(t1) {
		t.Errorf("s1: %+v", out1)
	}
	out2 := s.Route(policy.Request{Src: s2, Dst: d})
	if !out2.Delivered || !out2.Path.Contains(t2) {
		t.Errorf("s2: %+v (want delivery via t2)", out2)
	}
	if out2.Delivered && !oracle.Legal(out2.Path, policy.Request{Src: s2, Dst: d}) {
		t.Errorf("s2 illegal path %v", out2.Path)
	}
}

func TestHandleDataSmallerThanSourceRoute(t *testing.T) {
	topo := topology.Figure1()
	db := policy.OpenDB(topo.Graph)
	s := converged(t, topo.Graph, db, Config{})
	// Pick a multi-hop pair.
	var req policy.Request
	for _, src := range topo.Graph.IDs() {
		for _, dst := range topo.Graph.IDs() {
			if src == dst {
				continue
			}
			r := policy.Request{Src: src, Dst: dst}
			if res := s.Establish(r); res.OK && res.Path.Hops() >= 3 {
				req = r
			}
		}
	}
	if req.Src == ad.Invalid {
		t.Fatal("no multi-hop pair found")
	}
	res := s.Establish(req)
	if !res.OK {
		t.Fatal("establish failed")
	}
	delivered, handleHeader := s.SendData(req.Src, res.Handle, 64)
	if !delivered {
		t.Fatal("data not delivered")
	}
	fullPkt := &wire.Data{Mode: wire.ModeSourceRoute, Req: req, Route: res.Path, Payload: make([]byte, 64)}
	if handleHeader >= fullPkt.HeaderLen() {
		t.Errorf("handle header %d >= source-route header %d", handleHeader, fullPkt.HeaderLen())
	}
	if res.RTT == 0 {
		t.Error("setup RTT not measured")
	}
}

func TestCacheEvictionDropsOldFlows(t *testing.T) {
	// Tiny PG caches: establishing many flows through one transit evicts
	// earlier handles; their data packets are dropped (cache misses).
	g := ad.NewGraph()
	hub := g.AddAD("hub", ad.Transit, ad.Regional)
	d := g.AddAD("d", ad.Stub, ad.Campus)
	if err := g.AddLink(ad.Link{A: hub, B: d}); err != nil {
		t.Fatal(err)
	}
	var sources []ad.ID
	for i := 0; i < 5; i++ {
		src := g.AddAD("s", ad.Stub, ad.Campus)
		sources = append(sources, src)
		if err := g.AddLink(ad.Link{A: src, B: hub}); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.OpenDB(g)
	s := converged(t, g, db, Config{State: pgstate.Config{Kind: pgstate.Capped, Capacity: 2}})
	var handles []uint64
	var srcs []ad.ID
	for _, src := range sources {
		res := s.Establish(policy.Request{Src: src, Dst: d})
		if !res.OK {
			t.Fatalf("establish from %v failed", src)
		}
		handles = append(handles, res.Handle)
		srcs = append(srcs, src)
	}
	if s.CacheStats().Evictions == 0 {
		t.Fatal("no evictions with capacity 2 and 5 flows")
	}
	// The first flow's state at the hub is gone; data is dropped.
	delivered, _ := s.SendData(srcs[0], handles[0], 8)
	if delivered {
		t.Error("data delivered despite evicted PG state")
	}
	if s.CacheStats().Misses == 0 {
		t.Error("no cache misses recorded")
	}
	// The most recent flow still works.
	delivered, _ = s.SendData(srcs[len(srcs)-1], handles[len(handles)-1], 8)
	if !delivered {
		t.Error("most recent flow broken")
	}
}

func TestReRouteAfterLinkFailure(t *testing.T) {
	topo := topology.Figure1()
	db := policy.OpenDB(topo.Graph)
	s := converged(t, topo.Graph, db, Config{})
	ids := topo.Graph.IDs()
	req := policy.Request{Src: ids[5], Dst: ids[9]}
	out1 := s.Route(req)
	if !out1.Delivered {
		t.Fatalf("initial: %+v", out1)
	}
	a, b := out1.Path[0], out1.Path[1]
	if err := s.FailLink(a, b); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Converge(seconds(600)); !ok {
		t.Fatal("did not reconverge")
	}
	out2 := s.Route(req)
	if out2.Delivered {
		for i := 1; i < len(out2.Path); i++ {
			if (out2.Path[i-1] == a && out2.Path[i] == b) || (out2.Path[i-1] == b && out2.Path[i] == a) {
				t.Errorf("path still uses failed link: %v", out2.Path)
			}
		}
	}
}

func TestBlackholeWhenNoLegalRoute(t *testing.T) {
	// Stub-only topology: no transit terms at all, non-adjacent pair.
	g := ad.NewGraph()
	a := g.AddAD("a", ad.Stub, ad.Campus)
	b := g.AddAD("b", ad.MultihomedStub, ad.Campus)
	c := g.AddAD("c", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{{A: a, B: b}, {A: b, B: c}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.NewDB() // b advertises nothing
	s := converged(t, g, db, Config{})
	out := s.Route(policy.Request{Src: a, Dst: c})
	if out.Delivered {
		t.Errorf("delivered through transit-refusing multihomed stub: %v", out.Path)
	}
	// Adjacent traffic still works.
	if out := s.Route(policy.Request{Src: a, Dst: b}); !out.Delivered {
		t.Errorf("adjacent delivery failed: %+v", out)
	}
}

func TestSelfRoute(t *testing.T) {
	topo := topology.Figure1()
	db := policy.OpenDB(topo.Graph)
	s := converged(t, topo.Graph, db, Config{})
	id := topo.Graph.IDs()[0]
	out := s.Route(policy.Request{Src: id, Dst: id})
	if !out.Delivered || len(out.Path) != 1 {
		t.Errorf("self route: %+v", out)
	}
}

func TestCountersAndAccessors(t *testing.T) {
	topo := topology.Figure1()
	db := policy.OpenDB(topo.Graph)
	s := converged(t, topo.Graph, db, Config{})
	if s.StateEntries() == 0 {
		t.Error("no state after convergence")
	}
	if s.LSDBBytes() == 0 {
		t.Error("LSDBBytes = 0")
	}
	if res := s.Establish(policy.Request{Src: 999, Dst: 1}); res.OK {
		t.Error("establish from unknown AD succeeded")
	}
	if delivered, _ := s.SendData(999, 1, 1); delivered {
		t.Error("SendData from unknown AD delivered")
	}
}

func TestPerPacketValidationRejectsSpoofedOrigin(t *testing.T) {
	// §5.4.1: PGs use the handle "to allow for some per-packet validation
	// (e.g., is it coming from the AD specified in the cached PT setup
	// information)". A data packet carrying a valid handle but arriving
	// from the wrong neighbor must be dropped.
	g := ad.NewGraph()
	src := g.AddAD("src", ad.Stub, ad.Campus)
	evil := g.AddAD("evil", ad.Stub, ad.Campus)
	tr := g.AddAD("tr", ad.Transit, ad.Regional)
	d := g.AddAD("d", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{{A: src, B: tr}, {A: evil, B: tr}, {A: tr, B: d}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.OpenDB(g)
	s := converged(t, g, db, Config{})
	req := policy.Request{Src: src, Dst: d}
	res := s.Establish(req)
	if !res.OK {
		t.Fatal("establish failed")
	}
	// The legitimate source delivers.
	if delivered, _ := s.SendData(src, res.Handle, 8); !delivered {
		t.Fatal("legitimate data failed")
	}
	// A different neighbor replays the handle toward the transit.
	destNode := s.node(d)
	before := destNode.delivered[res.Handle]
	spoof := &wire.Data{Handle: res.Handle, Mode: wire.ModeHandle, Payload: make([]byte, 8)}
	s.nw.Send(evil, tr, wire.Marshal(spoof))
	s.nw.Engine.Run()
	if destNode.delivered[res.Handle] != before {
		t.Error("spoofed-origin packet was forwarded to the destination")
	}
}

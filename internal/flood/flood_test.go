package flood

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/racecheck"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

func TestDBInstall(t *testing.T) {
	db := NewDB()
	l1 := &wire.LSA{Origin: 1, Seq: 1}
	if !db.Install(l1) {
		t.Error("first install rejected")
	}
	if db.Install(&wire.LSA{Origin: 1, Seq: 1}) {
		t.Error("equal seq accepted")
	}
	if db.Install(&wire.LSA{Origin: 1, Seq: 0}) {
		t.Error("older seq accepted")
	}
	if !db.Install(&wire.LSA{Origin: 1, Seq: 2}) {
		t.Error("newer seq rejected")
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
	if db.Installs != 2 || db.Duplicates != 2 {
		t.Errorf("installs=%d dups=%d", db.Installs, db.Duplicates)
	}
	got, ok := db.Get(1)
	if !ok || got.Seq != 2 {
		t.Errorf("Get = %+v,%v", got, ok)
	}
	if _, ok := db.Get(9); ok {
		t.Error("Get absent origin succeeded")
	}
}

func TestDBGraphReconstruction(t *testing.T) {
	db := NewDB()
	db.Install(&wire.LSA{Origin: 1, Seq: 1, Links: []wire.LSALink{{Neighbor: 2, Cost: 3, Up: true}}})
	db.Install(&wire.LSA{Origin: 2, Seq: 1, Links: []wire.LSALink{
		{Neighbor: 1, Cost: 5, Up: true},
		{Neighbor: 3, Cost: 1, Up: true}, // 3 has no LSA: one-sided
	}})
	g := db.Graph()
	if g.NumADs() != 2 {
		t.Errorf("ADs = %d, want 2", g.NumADs())
	}
	l, ok := g.LinkBetween(1, 2)
	if !ok {
		t.Fatal("link 1-2 missing")
	}
	if l.Cost != 5 { // max of the two advertised costs
		t.Errorf("cost = %d, want 5", l.Cost)
	}
	if g.HasLink(2, 3) {
		t.Error("one-sided adjacency admitted")
	}
}

func TestDBGraphDownLinks(t *testing.T) {
	db := NewDB()
	db.Install(&wire.LSA{Origin: 1, Seq: 1, Links: []wire.LSALink{{Neighbor: 2, Cost: 1, Up: false}}})
	db.Install(&wire.LSA{Origin: 2, Seq: 1, Links: []wire.LSALink{{Neighbor: 1, Cost: 1, Up: true}}})
	if db.Graph().HasLink(1, 2) {
		t.Error("half-down link present in reconstructed graph")
	}
}

func TestDBPolicyReconstruction(t *testing.T) {
	db := NewDB()
	term := policy.OpenTerm(1, 1)
	term.Cost = 9
	db.Install(&wire.LSA{Origin: 1, Seq: 1, Terms: []policy.Term{term}})
	pdb := db.PolicyDB()
	ts := pdb.Terms(1)
	if len(ts) != 1 || ts[0].Cost != 9 {
		t.Errorf("terms = %+v", ts)
	}
}

func TestDBWireBytes(t *testing.T) {
	db := NewDB()
	if db.WireBytes() != 0 {
		t.Error("empty DB has bytes")
	}
	lsa := &wire.LSA{Origin: 1, Seq: 1, Terms: []policy.Term{policy.OpenTerm(1, 1)}}
	db.Install(lsa)
	if db.WireBytes() != len(wire.Marshal(lsa)) {
		t.Errorf("WireBytes = %d, want %d", db.WireBytes(), len(wire.Marshal(lsa)))
	}
}

// floodNode wires a Flooder into a sim.Node for substrate testing. With
// decodeAll it decodes every copy and hands it to handleLSA, the way
// Flooder.Receive's duplicate check must be indistinguishable from.
type floodNode struct {
	f         *Flooder
	decodeAll bool
}

func (n *floodNode) ID() ad.ID { return n.f.Self }
func (n *floodNode) Start(nw *sim.Network) {
	n.f.Originate(nw, nil)
}
func (n *floodNode) Receive(nw *sim.Network, from ad.ID, payload []byte) {
	if !n.decodeAll {
		n.f.Receive(nw, from, payload)
		return
	}
	msg, err := wire.Unmarshal(payload)
	if err != nil {
		return
	}
	if lsa, ok := msg.(*wire.LSA); ok {
		n.f.handleLSA(nw, from, lsa)
	}
}
func (n *floodNode) LinkDown(nw *sim.Network, nb ad.ID) { n.f.Originate(nw, nil) }
func (n *floodNode) LinkUp(nw *sim.Network, nb ad.ID)   { n.f.Originate(nw, nil) }

func buildFloodNet(t *testing.T) (*sim.Network, map[ad.ID]*floodNode) {
	t.Helper()
	topo := topology.Figure1()
	nw := sim.NewNetwork(topo.Graph, 1)
	nodes := make(map[ad.ID]*floodNode)
	for _, id := range topo.Graph.IDs() {
		n := &floodNode{f: NewFlooder(id, "lsa")}
		nodes[id] = n
		nw.AddNode(n)
	}
	return nw, nodes
}

func TestFloodingConverges(t *testing.T) {
	nw, nodes := buildFloodNet(t)
	if _, ok := nw.RunToQuiescence(10 * sim.Second); !ok {
		t.Fatal("flooding did not quiesce")
	}
	want := nw.Graph.NumADs()
	for id, n := range nodes {
		if n.f.DB.Len() != want {
			t.Errorf("%v LSDB has %d origins, want %d", id, n.f.DB.Len(), want)
		}
	}
	// Every node's reconstructed graph matches the physical topology.
	for id, n := range nodes {
		g := n.f.DB.Graph()
		if g.NumLinks() != nw.Graph.NumLinks() {
			t.Errorf("%v reconstructed %d links, want %d", id, g.NumLinks(), nw.Graph.NumLinks())
		}
	}
}

func TestFloodingLinkFailurePropagates(t *testing.T) {
	nw, nodes := buildFloodNet(t)
	nw.RunToQuiescence(10 * sim.Second)

	// Fail a link and let the re-originated LSAs flood.
	links := nw.Graph.Links()
	l := links[0]
	nw.Engine.After(sim.Second, func() { _ = nw.FailLink(l.A, l.B) })
	nw.Engine.Run()
	for id, n := range nodes {
		if n.f.DB.Graph().HasLink(l.A, l.B) {
			t.Errorf("%v still sees failed link %v-%v", id, l.A, l.B)
		}
	}
}

func TestFloodingOnChangeCallback(t *testing.T) {
	nw, nodes := buildFloodNet(t)
	calls := 0
	for _, n := range nodes {
		n.f.OnChange = func(nw *sim.Network) { calls++ }
	}
	nw.RunToQuiescence(10 * sim.Second)
	// Each of the N nodes accepts N LSAs (its own + N-1 others).
	n := nw.Graph.NumADs()
	if calls != n*n {
		t.Errorf("OnChange calls = %d, want %d", calls, n*n)
	}
}

func TestFloodingDuplicateSuppression(t *testing.T) {
	nw, nodes := buildFloodNet(t)
	nw.RunToQuiescence(10 * sim.Second)
	// Without suppression flooding never terminates; reaching here proves
	// it. Sanity: every node saw at least one duplicate on the cyclic
	// topology.
	dups := 0
	for _, n := range nodes {
		dups += n.f.DB.Duplicates
	}
	if dups == 0 {
		t.Error("no duplicates on a cyclic topology — suppression untested")
	}
}

func TestFlooderScope(t *testing.T) {
	// A scope filter restricts which neighbors receive flooded copies.
	g := ad.NewGraph()
	hub := g.AddAD("hub", ad.Transit, ad.Backbone)
	allowed := g.AddAD("allowed", ad.Stub, ad.Campus)
	blocked := g.AddAD("blocked", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{{A: hub, B: allowed}, {A: hub, B: blocked}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	nw := sim.NewNetwork(g, 1)
	hubNode := &floodNode{f: NewFlooder(hub, "lsa")}
	hubNode.f.Scope = func(nb ad.ID) bool { return nb == allowed }
	allowedNode := &floodNode{f: NewFlooder(allowed, "lsa")}
	blockedNode := &floodNode{f: NewFlooder(blocked, "lsa")}
	nw.AddNode(hubNode)
	nw.AddNode(allowedNode)
	nw.AddNode(blockedNode)
	hubNode.f.Originate(nw, nil)
	nw.Engine.Run()
	if _, ok := allowedNode.f.DB.Get(hub); !ok {
		t.Error("scoped neighbor did not receive the LSA")
	}
	if _, ok := blockedNode.f.DB.Get(hub); ok {
		t.Error("blocked neighbor received the LSA")
	}
}

// TestReceiveCountsLikeFullDecode: counting a stale copy as a duplicate
// from its (origin, seq) alone leaves every node's Installs and Duplicates
// where decoding every copy puts them, through the initial flood and a
// link failure's re-flood.
func TestReceiveCountsLikeFullDecode(t *testing.T) {
	type counts struct{ installs, dups int }
	run := func(decodeAll bool) map[ad.ID]counts {
		nw, nodes := buildFloodNet(t)
		for _, n := range nodes {
			n.decodeAll = decodeAll
		}
		nw.RunToQuiescence(10 * sim.Second)
		l := nw.Graph.Links()[0]
		nw.Engine.After(sim.Second, func() { _ = nw.FailLink(l.A, l.B) })
		nw.Engine.Run()
		out := make(map[ad.ID]counts)
		for id, n := range nodes {
			out[id] = counts{n.f.DB.Installs, n.f.DB.Duplicates}
		}
		return out
	}
	peek, full := run(false), run(true)
	for id, want := range full {
		if got := peek[id]; got != want {
			t.Errorf("%v: installs/duplicates %v, decoding every copy gives %v", id, got, want)
		}
	}
}

// TestAllocsFloodDuplicate: a stale copy of an LSA — what a node of degree
// d receives d-1 times for each new one — is counted without decoding it,
// so it allocates nothing.
func TestAllocsFloodDuplicate(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := ad.NewGraph()
	a := g.AddAD("a", ad.Transit, ad.Backbone)
	b := g.AddAD("b", ad.Transit, ad.Backbone)
	if err := g.AddLink(ad.Link{A: a, B: b}); err != nil {
		t.Fatal(err)
	}
	nw := sim.NewNetwork(g, 1)
	f := NewFlooder(a, "lsa")
	lsa := &wire.LSA{
		Origin: b, Seq: 3,
		Links: []wire.LSALink{{Neighbor: a, Cost: 1, Up: true}},
		Terms: []policy.Term{policy.OpenTerm(b, 1)},
	}
	frame := wire.Marshal(lsa)
	if !f.Receive(nw, b, frame) || f.DB.Installs != 1 {
		t.Fatalf("first copy: installs %d, want 1", f.DB.Installs)
	}
	if n := testing.AllocsPerRun(100, func() { f.Receive(nw, b, frame) }); n != 0 {
		t.Errorf("stale copy: %v allocs, want 0", n)
	}
	if f.DB.Installs != 1 || f.DB.Duplicates != 101 {
		t.Errorf("installs %d, duplicates %d; want 1 and 101", f.DB.Installs, f.DB.Duplicates)
	}
	if f.Receive(nw, b, wire.Marshal(&wire.DVUpdate{})) {
		t.Error("Receive claimed a frame that is not an LSA")
	}
}

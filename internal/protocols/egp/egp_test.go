package egp

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/racecheck"
	"repro/internal/sim"
	"repro/internal/wire"
)

var _ core.System = (*System)(nil)

func seconds(s int) sim.Time { return sim.Time(s) * sim.Second }

// tree builds a star-of-lines tree: root with three chains of length 2.
func tree(t *testing.T) (*ad.Graph, ad.ID, []ad.ID) {
	t.Helper()
	g := ad.NewGraph()
	root := g.AddAD("root", ad.Transit, ad.Backbone)
	var leaves []ad.ID
	for i := 0; i < 3; i++ {
		mid := g.AddAD("mid", ad.Transit, ad.Regional)
		leaf := g.AddAD("leaf", ad.Stub, ad.Campus)
		if err := g.AddLink(ad.Link{A: root, B: mid}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddLink(ad.Link{A: mid, B: leaf}); err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, leaf)
	}
	return g, root, leaves
}

// ring builds a 4-cycle with a stub hanging off one node.
func ring(t *testing.T) (*ad.Graph, []ad.ID, ad.ID) {
	t.Helper()
	g := ad.NewGraph()
	var ids []ad.ID
	for i := 0; i < 4; i++ {
		ids = append(ids, g.AddAD("r", ad.Transit, ad.Regional))
	}
	for i := 0; i < 4; i++ {
		if err := g.AddLink(ad.Link{A: ids[i], B: ids[(i+1)%4]}); err != nil {
			t.Fatal(err)
		}
	}
	stub := g.AddAD("stub", ad.Stub, ad.Campus)
	if err := g.AddLink(ad.Link{A: ids[0], B: stub}); err != nil {
		t.Fatal(err)
	}
	return g, ids, stub
}

func TestCorrectOnTree(t *testing.T) {
	g, _, _ := tree(t)
	s := New(g, Config{})
	if _, ok := s.Converge(seconds(120)); !ok {
		t.Fatal("did not converge")
	}
	for _, src := range g.IDs() {
		for _, dst := range g.IDs() {
			if src == dst {
				continue
			}
			out := s.Route(policy.Request{Src: src, Dst: dst})
			if !out.Delivered || out.Looped {
				t.Errorf("%v->%v: %+v", src, dst, out)
			}
		}
	}
	if s.StateEntries() == 0 || s.Computations() == 0 {
		t.Error("counters zero")
	}
}

func TestInitialConvergenceOnRing(t *testing.T) {
	// BFS propagation is loop-free even on cycles at start-up.
	g, _, _ := ring(t)
	s := New(g, Config{})
	s.Converge(seconds(120))
	for _, src := range g.IDs() {
		for _, dst := range g.IDs() {
			if src == dst {
				continue
			}
			out := s.Route(policy.Request{Src: src, Dst: dst})
			if out.Looped {
				t.Errorf("%v->%v looped at startup", src, dst)
			}
		}
	}
}

func TestLoopAfterFailureOnCycle(t *testing.T) {
	// After failing the stub's neighbor's preferred path, fallback to a
	// stale advertiser creates a persistent forwarding loop somewhere on
	// the ring — the EGP topology-restriction failure (paper §3).
	g, ids, stub := ring(t)
	s := New(g, Config{})
	s.Converge(seconds(120))
	// Fail the link that carries most of the ring's traffic to the stub.
	if err := s.FailLink(ids[0], stub); err != nil {
		t.Fatal(err)
	}
	s.Converge(seconds(600))
	// The stub is now unreachable; correct behaviour would be blackhole,
	// EGP instead loops for at least one source.
	loops := 0
	for _, src := range ids {
		out := s.Route(policy.Request{Src: src, Dst: stub})
		if out.Delivered {
			t.Errorf("%v->stub delivered across a cut link: %v", src, out.Path)
		}
		if out.Looped {
			loops++
		}
	}
	if loops == 0 {
		t.Error("no forwarding loops after failure on cyclic topology — baseline failure mode not reproduced")
	}
}

func TestTreeFailureNeverDeliversAcrossCut(t *testing.T) {
	// After a failure EGP has no sound withdrawal mechanism: traffic to
	// the cut-off leaf must not be (mis)delivered. The protocol may loop
	// between stale advertisers — EGP's documented weakness, and why the
	// paper notes deployments relied on static, restricted topologies
	// that were "not feasible to monitor ... adequately" (§3).
	g, root, leaves := tree(t)
	s := New(g, Config{})
	s.Converge(seconds(120))
	mid := s.Route(policy.Request{Src: root, Dst: leaves[0]}).Path[1]
	if err := s.FailLink(mid, leaves[0]); err != nil {
		t.Fatal(err)
	}
	s.Converge(seconds(600))
	out := s.Route(policy.Request{Src: root, Dst: leaves[0]})
	if out.Delivered {
		t.Errorf("delivered across cut link: %+v", out)
	}
	// Unaffected destinations keep working.
	out = s.Route(policy.Request{Src: leaves[1], Dst: leaves[2]})
	if !out.Delivered || out.Looped {
		t.Errorf("unaffected pair broken: %+v", out)
	}
}

func TestAccessorsAndLinkUp(t *testing.T) {
	g, root, leaves := tree(t)
	s := New(g, Config{})
	if s.Name() != "egp" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.Network() == nil {
		t.Fatal("Network nil")
	}
	s.Converge(seconds(120))
	// Restore after failure exercises LinkUp's re-advertisement.
	mid := s.Route(policy.Request{Src: root, Dst: leaves[0]}).Path[1]
	s.FailLink(mid, leaves[0])
	s.Converge(seconds(600))
	if err := s.Network().RestoreLink(mid, leaves[0]); err != nil {
		t.Fatal(err)
	}
	s.Converge(seconds(1200))
	// EGP's reachability is sticky: the mid node stays wedged on its
	// stale fallback even after the link returns (historically, EGP
	// deployments needed manual intervention). The leaf, however, lost
	// all its routes at failure and relearns them from mid's LinkUp
	// re-advertisement.
	out := s.Route(policy.Request{Src: leaves[0], Dst: root})
	if !out.Delivered {
		t.Errorf("leaf->root after recovery: %+v", out)
	}
}

// TestAllocsEGPReceive: once a converged system's buffers are warm, a
// Receive that learns a route — decoding the update, advertising the new
// route to every neighbour, and each neighbour decoding that — allocates
// nothing.
func TestAllocsEGPReceive(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g, ids, stub := ring(t)
	s := New(g, Config{})
	if _, ok := s.Converge(seconds(120)); !ok {
		t.Fatal("did not converge")
	}
	n, from := s.nodes[ad.Position(s.ids, ids[2])], ids[1]
	d := ad.Position(s.ids, stub)
	frame := wire.Marshal(&wire.EGPUpdate{Routes: []wire.EGPRoute{{Dest: stub, Metric: 2}, {Dest: ids[0], Metric: 1}}})
	msgs := s.nw.Stats.MessagesSent
	relearn := func() {
		n.nextHop[d], n.routes = ad.Invalid, n.routes-1
		n.Receive(s.nw, from, frame)
		s.nw.Engine.Run()
	}
	relearn()
	if n := testing.AllocsPerRun(100, relearn); n != 0 {
		t.Errorf("warm Receive: %v allocs, want 0", n)
	}
	if n.nextHop[d] != from || n.metric[d] != 3 {
		t.Errorf("route to %v via %v metric %d, want via %v metric 3", stub, n.nextHop[d], n.metric[d], from)
	}
	// Each relearning advertises to both of the node's neighbours.
	if got, want := s.nw.Stats.MessagesSent-msgs, uint64(2*102); got != want {
		t.Errorf("%d advertisements sent, want %d", got, want)
	}
}

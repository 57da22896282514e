package plaindv

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

var _ core.System = (*System)(nil)

func lineGraph(t *testing.T, n int) (*ad.Graph, []ad.ID) {
	t.Helper()
	g := ad.NewGraph()
	ids := make([]ad.ID, n)
	for i := range ids {
		ids[i] = g.AddAD("n", ad.Transit, ad.Regional)
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddLink(ad.Link{A: ids[i], B: ids[i+1], Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids
}

func TestConvergesOnLine(t *testing.T) {
	g, ids := lineGraph(t, 5)
	s := New(g, Config{SplitHorizon: true})
	if _, ok := s.Converge(time(60)); !ok {
		t.Fatal("did not converge")
	}
	// Every node must reach every destination over the line, each hop
	// costing 1.
	for i, id := range ids {
		for j, dst := range ids {
			out := s.Route(policy.Request{Src: id, Dst: dst})
			if !out.Delivered {
				t.Fatalf("%v missing route to %v", id, dst)
			}
			if want := abs(i - j); out.Path.Hops() != want {
				t.Errorf("%v->%v path = %v, want %d hops", id, dst, out.Path, want)
			}
		}
	}
}

func time(sec int) sim.Time { return sim.Time(sec) * sim.Second }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestRouteDelivery(t *testing.T) {
	g, ids := lineGraph(t, 4)
	s := New(g, Config{SplitHorizon: true})
	s.Converge(time(60))
	out := s.Route(policy.Request{Src: ids[0], Dst: ids[3]})
	if !out.Delivered || out.Looped {
		t.Fatalf("outcome = %+v", out)
	}
	if !out.Path.Equal(ad.Path{ids[0], ids[1], ids[2], ids[3]}) {
		t.Errorf("path = %v", out.Path)
	}
}

func TestShortestPathOnFigure1(t *testing.T) {
	topo := topology.Figure1()
	s := New(topo.Graph, Config{SplitHorizon: true})
	if _, ok := s.Converge(time(120)); !ok {
		t.Fatal("did not converge")
	}
	ids := topo.Graph.IDs()
	for _, src := range ids {
		for _, dst := range ids {
			if src == dst {
				continue
			}
			out := s.Route(policy.Request{Src: src, Dst: dst})
			if !out.Delivered {
				t.Errorf("%v->%v not delivered", src, dst)
			}
		}
	}
}

func TestLinkFailureReconvergence(t *testing.T) {
	topo := topology.Figure1()
	s := New(topo.Graph, Config{SplitHorizon: true})
	s.Converge(time(120))
	// Fail a redundant link: the lateral regional link (Figure 1 has
	// alternatives through the backbones).
	var lat ad.Link
	for _, l := range topo.Graph.Links() {
		if l.Class == ad.Lateral {
			lat = l
			break
		}
	}
	if err := s.FailLink(lat.A, lat.B); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Converge(time(600)); !ok {
		t.Fatal("did not reconverge after failure")
	}
	out := s.Route(policy.Request{Src: lat.A, Dst: lat.B})
	if !out.Delivered {
		t.Errorf("no route around failed link: %+v", out)
	}
	if out.Path.Hops() < 2 {
		t.Errorf("path %v still uses failed link", out.Path)
	}
}

func TestCountToInfinityWithoutSplitHorizon(t *testing.T) {
	// Two-node comparison: a partitioned line without split horizon
	// generates far more messages than with it (count to infinity).
	run := func(split bool) uint64 {
		g, ids := lineGraph(t, 3)
		s := New(g, Config{SplitHorizon: split})
		s.Converge(time(120))
		before := s.Network().Stats.MessagesSent
		// Cut the only link to ids[2]: destination unreachable.
		if err := s.FailLink(ids[1], ids[2]); err != nil {
			t.Fatal(err)
		}
		s.Converge(time(600))
		return s.Network().Stats.MessagesSent - before
	}
	with := run(true)
	without := run(false)
	if without <= with {
		t.Errorf("count-to-infinity not observed: with split=%d, without=%d", with, without)
	}
}

func TestUnreachableAfterPartition(t *testing.T) {
	g, ids := lineGraph(t, 3)
	s := New(g, Config{SplitHorizon: true})
	s.Converge(time(60))
	s.FailLink(ids[1], ids[2])
	s.Converge(time(600))
	out := s.Route(policy.Request{Src: ids[0], Dst: ids[2]})
	if out.Delivered {
		t.Errorf("delivered across partition: %+v", out)
	}
}

func TestLinkRecovery(t *testing.T) {
	g, ids := lineGraph(t, 3)
	s := New(g, Config{SplitHorizon: true})
	s.Converge(time(60))
	s.FailLink(ids[1], ids[2])
	s.Converge(time(600))
	if err := s.Network().RestoreLink(ids[1], ids[2]); err != nil {
		t.Fatal(err)
	}
	s.Converge(time(1200))
	out := s.Route(policy.Request{Src: ids[0], Dst: ids[2]})
	if !out.Delivered {
		t.Errorf("no route after recovery: %+v", out)
	}
}

func TestStateAndComputations(t *testing.T) {
	g, _ := lineGraph(t, 4)
	s := New(g, Config{SplitHorizon: true})
	s.Converge(time(60))
	// 4 nodes x 4 destinations.
	if got := s.StateEntries(); got != 16 {
		t.Errorf("StateEntries = %d, want 16", got)
	}
	if s.Computations() == 0 {
		t.Error("Computations = 0")
	}
}

func TestIgnoresPolicy(t *testing.T) {
	// Plain DV routes through ADs that advertise no transit terms —
	// the paper's core criticism of policy-blind protocols (§3).
	g := ad.NewGraph()
	s1 := g.AddAD("s1", ad.Stub, ad.Campus)
	mh := g.AddAD("mh", ad.MultihomedStub, ad.Campus) // refuses transit
	s2 := g.AddAD("s2", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{{A: s1, B: mh}, {A: mh, B: s2}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	sys := New(g, Config{SplitHorizon: true})
	sys.Converge(time(60))
	out := sys.Route(policy.Request{Src: s1, Dst: s2})
	if !out.Delivered {
		t.Fatal("not delivered")
	}
	oracle := core.Oracle{G: g, DB: policy.OpenDB(g)}
	if oracle.Legal(out.Path, policy.Request{Src: s1, Dst: s2}) {
		t.Error("path through transit-refusing stub reported legal — oracle broken")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, sim.Time) {
		topo := topology.Figure1()
		s := New(topo.Graph, Config{SplitHorizon: true})
		conv, _ := s.Converge(time(120))
		return s.Network().Stats.MessagesSent, conv
	}
	m1, c1 := run()
	m2, c2 := run()
	if m1 != m2 || c1 != c2 {
		t.Errorf("nondeterministic: (%d,%v) vs (%d,%v)", m1, c1, m2, c2)
	}
}

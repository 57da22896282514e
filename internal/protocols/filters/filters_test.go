package filters

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

var _ core.System = (*System)(nil)

// twoPathNet: src can reach d via t1 (short) or t2 (long). t1 filters src.
func twoPathNet(t *testing.T) (*ad.Graph, *policy.DB, ad.ID, ad.ID, ad.ID, ad.ID) {
	t.Helper()
	g := ad.NewGraph()
	src := g.AddAD("src", ad.Stub, ad.Campus)
	t1 := g.AddAD("t1", ad.Transit, ad.Regional)
	t2 := g.AddAD("t2", ad.Transit, ad.Regional)
	d := g.AddAD("d", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: src, B: t1, Cost: 1}, {A: t1, B: d, Cost: 1},
		{A: src, B: t2, Cost: 3}, {A: t2, B: d, Cost: 3},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.NewDB()
	term1 := policy.OpenTerm(t1, 0)
	term1.Sources = policy.SetOf(d) // src is filtered at t1
	db.Add(term1)
	db.Add(policy.OpenTerm(t2, 0))
	return g, db, src, t1, t2, d
}

func TestDiscoveryFindsSecondPath(t *testing.T) {
	g, db, src, t1, t2, d := twoPathNet(t)
	s := New(g, db, Config{Timeout: 100 * sim.Millisecond})
	s.Converge(0)
	disc := s.Discover(policy.Request{Src: src, Dst: d})
	if !disc.Delivered {
		t.Fatalf("discovery failed: %+v", disc)
	}
	if !disc.Path.Contains(t2) || disc.Path.Contains(t1) {
		t.Errorf("path = %v, want via t2", disc.Path)
	}
	if disc.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (first candidate filtered)", disc.Attempts)
	}
	if disc.DroppedPackets == 0 {
		t.Error("no dropped packets recorded")
	}
	// Latency includes at least one full timeout.
	if disc.Latency < 100*sim.Millisecond {
		t.Errorf("latency = %v, want >= timeout", disc.Latency)
	}
}

func TestFirstPathWorksNoTimeout(t *testing.T) {
	g, _, src, _, _, d := twoPathNet(t)
	open := policy.OpenDB(g)
	s := New(g, open, Config{Timeout: 100 * sim.Millisecond})
	disc := s.Discover(policy.Request{Src: src, Dst: d})
	if !disc.Delivered || disc.Attempts != 1 || disc.DroppedPackets != 0 {
		t.Errorf("open-policy discovery: %+v", disc)
	}
	if disc.Latency >= 100*sim.Millisecond {
		t.Errorf("latency %v includes a timeout on a working path", disc.Latency)
	}
}

func TestAllCandidatesFiltered(t *testing.T) {
	g, _, src, t1, t2, d := twoPathNet(t)
	db := policy.NewDB()
	blocked1 := policy.OpenTerm(t1, 0)
	blocked1.Sources = policy.SetOf(d)
	db.Add(blocked1)
	blocked2 := policy.OpenTerm(t2, 0)
	blocked2.Sources = policy.SetOf(d)
	db.Add(blocked2)
	s := New(g, db, Config{Timeout: 50 * sim.Millisecond, MaxCandidates: 4})
	disc := s.Discover(policy.Request{Src: src, Dst: d})
	if disc.Delivered {
		t.Errorf("delivered despite all paths filtered: %+v", disc)
	}
	if disc.DroppedPackets == 0 {
		t.Error("no drops recorded")
	}
	// Wasted time: one timeout per attempt.
	if disc.Latency < sim.Time(disc.Attempts)*50*sim.Millisecond {
		t.Errorf("latency %v < attempts x timeout", disc.Latency)
	}
}

func TestRouteInterface(t *testing.T) {
	g, db, src, _, _, d := twoPathNet(t)
	s := New(g, db, Config{Timeout: 50 * sim.Millisecond})
	out := s.Route(policy.Request{Src: src, Dst: d})
	if !out.Delivered {
		t.Errorf("Route: %+v", out)
	}
	self := s.Route(policy.Request{Src: src, Dst: src})
	if !self.Delivered || len(self.Path) != 1 {
		t.Errorf("self route: %+v", self)
	}
	if s.StateEntries() != 0 {
		t.Error("filters should keep no routing state")
	}
	if s.Computations() == 0 {
		t.Error("no probes counted")
	}
}

func TestComparedWithORWGOnFigure1(t *testing.T) {
	// The filter baseline wastes packets and time that policy routing
	// does not: on a restricted Figure-1 policy set, discovery drops
	// packets while ORWG-style validation would not send any.
	topo := topology.Figure1()
	db := policy.Generate(topo.Graph, policy.GenConfig{Seed: 17, SourceRestrictionProb: 0.7, SourceFraction: 0.4})
	s := New(topo.Graph, db, Config{Timeout: 50 * sim.Millisecond, MaxCandidates: 5})
	reqs := core.AllPairsRequests(topo.Graph, true, 0, 0)
	totalDrops := 0
	for _, req := range reqs {
		d := s.Discover(req)
		totalDrops += d.DroppedPackets
	}
	if totalDrops == 0 {
		t.Error("restricted policies caused no drops — baseline inert")
	}
}

// TestFailLinkCutsOnlyUplink: a stub reached only through t2 is delivered
// to until that uplink fails; after it, every probe is lost on the dead link
// and the source gives up, one timeout per attempt.
func TestFailLinkCutsOnlyUplink(t *testing.T) {
	g, _, src, _, t2, _ := twoPathNet(t)
	e := g.AddAD("e", ad.Stub, ad.Campus)
	if err := g.AddLink(ad.Link{A: t2, B: e, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	s := New(g, policy.OpenDB(g), Config{Timeout: 50 * sim.Millisecond})
	req := policy.Request{Src: src, Dst: e}
	if out := s.Route(req); !out.Delivered {
		t.Fatalf("before the failure: %+v", out)
	}
	if err := s.FailLink(t2, e); err != nil {
		t.Fatal(err)
	}
	lost := s.Network().Stats.MessagesDropped
	disc := s.Discover(req)
	if disc.Delivered {
		t.Fatalf("delivered over a failed uplink: %+v", disc)
	}
	if s.Network().Stats.MessagesDropped == lost {
		t.Error("no probe was lost on the failed link")
	}
	if disc.Latency < sim.Time(disc.Attempts)*50*sim.Millisecond {
		t.Errorf("latency %v < attempts x timeout", disc.Latency)
	}
}

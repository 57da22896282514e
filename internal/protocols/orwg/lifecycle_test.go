package orwg

import (
	"slices"
	"testing"

	"repro/internal/ad"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// hubTopology builds nSources stub ADs all routed through one transit hub
// to a single destination — the shape that concentrates PG state pressure.
func hubTopology(t *testing.T, nSources int) (*ad.Graph, []ad.ID, ad.ID) {
	t.Helper()
	g := ad.NewGraph()
	hub := g.AddAD("hub", ad.Transit, ad.Regional)
	d := g.AddAD("d", ad.Stub, ad.Campus)
	if err := g.AddLink(ad.Link{A: hub, B: d}); err != nil {
		t.Fatal(err)
	}
	var sources []ad.ID
	for i := 0; i < nSources; i++ {
		src := g.AddAD("s", ad.Stub, ad.Campus)
		sources = append(sources, src)
		if err := g.AddLink(ad.Link{A: src, B: hub}); err != nil {
			t.Fatal(err)
		}
	}
	return g, sources, d
}

func TestSoftStateRefreshKeepsFlowAlive(t *testing.T) {
	g, sources, d := hubTopology(t, 1)
	db := policy.OpenDB(g)
	ttl := 2 * sim.Second
	s := converged(t, g, db, Config{State: pgstate.Config{Kind: pgstate.Soft, TTL: ttl}})
	res := s.Establish(policy.Request{Src: sources[0], Dst: d})
	if !res.OK {
		t.Fatal("establish failed")
	}
	// Refreshed every TTL/2, the flow outlives many TTLs.
	for i := 0; i < 6; i++ {
		s.Advance(ttl / 2)
		s.RefreshEstablished()
	}
	if delivered, _ := s.SendData(sources[0], res.Handle, 8); !delivered {
		t.Fatal("refreshed soft flow died")
	}
	if s.Network().Stats.BytesByType[wire.TypeRefresh] == 0 {
		t.Error("no refresh bytes on the wire")
	}
	st, _ := s.StateMetrics()
	if st.Refreshes == 0 {
		t.Error("no refreshes counted")
	}
	// Once the source stops refreshing, the whole route decays and the
	// source's own expiry kills the flow (abandonment, not repair).
	s.Advance(3 * ttl)
	if len(s.node(sources[0]).established) != 0 {
		t.Error("unrefreshed flow still established")
	}
	if delivered, _ := s.SendData(sources[0], res.Handle, 8); delivered {
		t.Error("data delivered over expired state")
	}
	if s.PendingRepairs() != 0 {
		t.Error("abandoned flow queued for repair")
	}
}

func TestSoftStateExpiresAbandonedOrphans(t *testing.T) {
	g, sources, d := hubTopology(t, 1)
	db := policy.OpenDB(g)
	for _, cfg := range []pgstate.Config{
		{Kind: pgstate.Hard},
		{Kind: pgstate.Soft, TTL: 2 * sim.Second},
	} {
		s := converged(t, g, db, Config{State: cfg})
		res := s.Establish(policy.Request{Src: sources[0], Dst: d})
		if !res.OK {
			t.Fatalf("%s: establish failed", cfg.Kind)
		}
		s.Abandon(sources[0], res.Handle)
		s.Advance(10 * sim.Second)
		st, _ := s.StateMetrics()
		resident := st.Resident
		switch cfg.Kind {
		case pgstate.Hard:
			// Hard state leaks: hub and destination still hold the handle.
			if resident != 2 {
				t.Errorf("hard: resident = %d, want 2 leaked entries", resident)
			}
		case pgstate.Soft:
			if resident != 0 {
				t.Errorf("soft: resident = %d, want 0 after expiry", resident)
			}
			if st.Expirations == 0 {
				t.Error("soft: no expirations counted")
			}
		}
	}
}

func TestCappedNAKOnMissQueuesRepair(t *testing.T) {
	g, sources, d := hubTopology(t, 5)
	db := policy.OpenDB(g)
	s := converged(t, g, db, Config{State: pgstate.Config{Kind: pgstate.Capped, Capacity: 2}})
	var handles []uint64
	for _, src := range sources {
		res := s.Establish(policy.Request{Src: src, Dst: d})
		if !res.OK {
			t.Fatalf("establish from %v failed", src)
		}
		handles = append(handles, res.Handle)
	}
	if _, maxPeak := s.StateMetrics(); maxPeak > 2 {
		t.Errorf("per-PG peak %d exceeds capacity 2", maxPeak)
	}
	// The first flow's hub entry was evicted: its data packet draws a
	// SetupNoState NAK back to the source instead of a silent blackhole.
	if delivered, _ := s.SendData(sources[0], handles[0], 8); delivered {
		t.Fatal("data delivered over evicted state")
	}
	if s.PendingRepairs() != 1 {
		t.Fatalf("pending repairs = %d, want 1", s.PendingRepairs())
	}
	if _, ok := s.node(sources[0]).established[handles[0]]; ok {
		t.Error("NAKed flow still established under its old handle")
	}
	sum := s.RepairAll()
	if sum.Attempted != 1 || sum.Repaired != 1 {
		t.Fatalf("repair summary = %+v", sum)
	}
	fresh := handlesAt(s, sources[0])
	if len(fresh) != 1 || fresh[0] == handles[0] {
		t.Fatalf("re-setup handles = %v (old %d)", fresh, handles[0])
	}
	if delivered, _ := s.SendData(sources[0], fresh[0], 8); !delivered {
		t.Error("repaired flow does not deliver")
	}
}

func TestLinkFailureInvalidatesAndRepairs(t *testing.T) {
	topo := topology.Figure1()
	db := policy.OpenDB(topo.Graph)
	// Find, on a second system, a flow with at least two hops so the failed
	// link is not at the source; then establish only that flow.
	probe := converged(t, topo.Graph, db, Config{})
	var req policy.Request
	var want ad.Path
	for _, src := range topo.Graph.IDs() {
		for _, dst := range topo.Graph.IDs() {
			if src == dst {
				continue
			}
			r := policy.Request{Src: src, Dst: dst}
			if rr := probe.Establish(r); rr.OK && rr.Path.Hops() >= 3 && req.Src == ad.Invalid {
				req, want = r, rr.Path
			}
		}
	}
	if req.Src == ad.Invalid {
		t.Fatal("no multi-hop pair found")
	}
	s := converged(t, topo.Graph, db, Config{})
	res := s.Establish(req)
	if !res.OK || !slices.Equal(res.Path, want) {
		t.Fatalf("establish %v = %+v, want path %v", req, res, want)
	}
	a, b := res.Path[1], res.Path[2]
	if err := s.FailLink(a, b); err != nil {
		t.Fatal(err)
	}
	// The NAK from the break walked back to the source: the flow is dead
	// and queued for repair, and no PG still holds its handle.
	if _, ok := s.node(req.Src).established[res.Handle]; ok {
		t.Fatal("flow crossing failed link still established")
	}
	if s.PendingRepairs() != 1 {
		t.Fatalf("pending repairs = %d, want 1", s.PendingRepairs())
	}
	for _, n := range s.nodes {
		if _, ok := n.table.Peek(s.nw.Now(), res.Handle); ok && n.id != req.Src {
			if i := n.indexOn(res.Path); i > 0 {
				// Hops upstream of the break were cleared by the NAK walk;
				// hops downstream by the repair teardown.
				t.Errorf("AD %v still holds handle state for the dead flow", n.id)
			}
		}
	}
	if _, ok := s.Converge(seconds(600)); !ok {
		t.Fatal("did not reconverge")
	}
	sum := s.RepairAll()
	if sum.Attempted != 1 {
		t.Fatalf("repair summary = %+v", sum)
	}
	if sum.Repaired == 1 {
		lat := s.ResetupLatency()
		if lat.Count != 1 {
			t.Errorf("resetup latency count = %d, want 1", lat.Count)
		}
		fresh := handlesAt(s, req.Src)
		if len(fresh) != 1 {
			t.Fatalf("re-setup handles = %v", fresh)
		}
		path := s.node(req.Src).established[fresh[0]]
		for i := 1; i < len(path); i++ {
			if (path[i-1] == a && path[i] == b) || (path[i-1] == b && path[i] == a) {
				t.Errorf("repaired route still crosses failed link: %v", path)
			}
		}
		if delivered, _ := s.SendData(req.Src, fresh[0], 8); !delivered {
			t.Error("repaired flow does not deliver")
		}
	}
}

// handlesAt lists src's live flow handles in ascending order.
func handlesAt(s *System, src ad.ID) []uint64 {
	var hs []uint64
	for h := range s.node(src).established {
		hs = append(hs, h)
	}
	slices.Sort(hs)
	return hs
}

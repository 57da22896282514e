package routeserver

import (
	"strings"
	"testing"

	"repro/internal/ad"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synthesis"
)

// dpGraph is a diamond: src reaches dst through either t1 or t2.
func dpGraph(t *testing.T) (*ad.Graph, *policy.DB, ad.ID, ad.ID, ad.ID, ad.ID) {
	t.Helper()
	g := ad.NewGraph()
	src := g.AddAD("src", ad.Stub, ad.Campus)
	t1 := g.AddAD("t1", ad.Transit, ad.Regional)
	t2 := g.AddAD("t2", ad.Transit, ad.Regional)
	dst := g.AddAD("dst", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: src, B: t1, Cost: 1}, {A: t1, B: dst, Cost: 1},
		{A: src, B: t2, Cost: 5}, {A: t2, B: dst, Cost: 5},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return g, policy.OpenDB(g), src, t1, t2, dst
}

func dpServer(g *ad.Graph, db *policy.DB) *Server {
	return New(synthesis.NewOnDemand(g, db), Config{})
}

func TestDataPlaneInstallAndSend(t *testing.T) {
	g, db, src, _, _, dst := dpGraph(t)
	srv := dpServer(g, db)
	dp, err := NewDataPlane(pgstate.Config{Kind: pgstate.Hard})
	if err != nil {
		t.Fatal(err)
	}
	req := policy.Request{Src: src, Dst: dst}
	res := srv.Query(req)
	if !res.Found {
		t.Fatal("no route served")
	}
	h := dp.Install(req, res.Path)
	if r := dp.Send(h); !r.Delivered {
		t.Fatalf("send = %+v", r)
	}
	m := dp.Metrics()
	if m.Flows != 1 || m.State.Resident != len(res.Path) {
		t.Fatalf("metrics = %+v", m)
	}
	if r := dp.Send(999); r.Delivered {
		t.Error("unknown handle delivered")
	}
}

func TestDataPlaneSoftExpiryAndRefresh(t *testing.T) {
	g, db, src, _, _, dst := dpGraph(t)
	srv := dpServer(g, db)
	dp, err := NewDataPlane(pgstate.Config{Kind: pgstate.Soft, TTL: 10 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	req := policy.Request{Src: src, Dst: dst}
	res := srv.Query(req)
	h := dp.Install(req, res.Path)
	// Refreshed within the TTL, the flow survives several TTLs.
	for i := 0; i < 4; i++ {
		dp.Tick(5 * sim.Second)
		if refreshed, failed := dp.RefreshAll(); refreshed != 1 || failed != 0 {
			t.Fatalf("round %d: refreshed=%d failed=%d", i, refreshed, failed)
		}
	}
	if r := dp.Send(h); !r.Delivered {
		t.Fatal("refreshed flow died")
	}
	if m := dp.Metrics(); m.RefreshBytes == 0 {
		t.Error("no refresh bytes counted")
	}
	// Unrefreshed past the TTL, the whole route expires and the flow is
	// abandoned (no repair).
	if expired := dp.Tick(11 * sim.Second); expired != len(res.Path) {
		t.Fatalf("expired %d entries, want %d", expired, len(res.Path))
	}
	m := dp.Metrics()
	if m.Flows != 0 || m.PendingRepairs != 0 || m.State.Resident != 0 {
		t.Fatalf("metrics after expiry = %+v", m)
	}
}

func TestDataPlaneNAKOnMissRepairs(t *testing.T) {
	g, db, src, _, _, dst := dpGraph(t)
	srv := dpServer(g, db)
	dp, err := NewDataPlane(pgstate.Config{Kind: pgstate.Capped, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	req := policy.Request{Src: src, Dst: dst}
	res := srv.Query(req)
	h1 := dp.Install(req, res.Path)
	// Two more flows over the same 2-capacity gateways evict h1's state.
	dp.Install(req, res.Path)
	dp.Install(req, res.Path)
	r := dp.Send(h1)
	if r.Delivered || r.MissAt == 0 {
		t.Fatalf("send over evicted state = %+v", r)
	}
	m := dp.Metrics()
	if m.NAKs != 1 || m.PendingRepairs != 1 || m.MaxPeak > 2 {
		t.Fatalf("metrics = %+v", m)
	}
	attempted, repaired := dp.Repair(srv)
	if attempted != 1 || repaired != 1 {
		t.Fatalf("repair = %d/%d", repaired, attempted)
	}
	hs := dp.Handles()
	if len(hs) != 3 || hs[len(hs)-1] == h1 {
		t.Fatalf("handles after repair = %v", hs)
	}
	if r := dp.Send(hs[len(hs)-1]); !r.Delivered {
		t.Error("repaired flow does not deliver")
	}
	if lat := dp.Metrics().ResetupLatency; lat.Count != 1 {
		t.Errorf("resetup latency count = %d", lat.Count)
	}
}

// TestDataPlaneRefreshNAKQueuesRepair: a refresh that reaches a hop which
// lost the flow's state NAKs, exactly as a data packet would: the flow
// fails, the NAK is counted, the hops upstream of the miss drop their
// entries, and the request is queued for repair.
func TestDataPlaneRefreshNAKQueuesRepair(t *testing.T) {
	g, db, src, t1, _, dst := dpGraph(t)
	srv := dpServer(g, db)
	dp, err := NewDataPlane(pgstate.Config{Kind: pgstate.Soft, TTL: 10 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	req := policy.Request{Src: src, Dst: dst}
	res := srv.Query(req)
	if want := (ad.Path{src, t1, dst}); !res.Found || !res.Path.Equal(want) {
		t.Fatalf("served %v, want %v", res.Path, want)
	}
	h := dp.Install(req, res.Path)
	// The transit PG loses the state; the source and destination keep it.
	dp.tables[t1].Remove(h)
	if refreshed, failed := dp.RefreshAll(); refreshed != 0 || failed != 1 {
		t.Fatalf("refreshed=%d failed=%d, want 0 and 1", refreshed, failed)
	}
	m := dp.Metrics()
	if m.NAKs != 1 || m.PendingRepairs != 1 || m.Flows != 0 {
		t.Fatalf("metrics = %+v, want 1 NAK, 1 pending repair, no flows", m)
	}
	if _, ok := dp.tables[src].Peek(dp.Now(), h); ok {
		t.Error("the source still holds the failed flow's state")
	}
	// The hop past the miss keeps its entry until it expires, as after a
	// data-packet NAK.
	if _, ok := dp.tables[dst].Peek(dp.Now(), h); !ok || m.State.Resident != 1 {
		t.Errorf("downstream entry: present %v, resident %d; want the destination's alone", ok, m.State.Resident)
	}
	if attempted, repaired := dp.Repair(srv); attempted != 1 || repaired != 1 {
		t.Fatalf("repair = %d/%d", repaired, attempted)
	}
}

func TestDataPlaneLinkFailureRepairsAroundIt(t *testing.T) {
	g, db, src, t1, _, dst := dpGraph(t)
	srv := dpServer(g, db)
	dp, err := NewDataPlane(pgstate.Config{Kind: pgstate.Hard})
	if err != nil {
		t.Fatal(err)
	}
	req := policy.Request{Src: src, Dst: dst}
	res := srv.Query(req)
	if !res.Path.Contains(t1) {
		t.Fatalf("cheap route should use t1: %v", res.Path)
	}
	h := dp.Install(req, res.Path)
	// Fail the t1-dst link on the live server, then flush crossing state.
	srv.Mutate(func() { g.RemoveLink(t1, dst) })
	if flushed := dp.InvalidateLink(t1, dst); flushed == 0 {
		t.Fatal("no state flushed for the failed link")
	}
	if r := dp.Send(h); r.Delivered {
		t.Fatal("flow delivered across failed link")
	}
	if _, repaired := dp.Repair(srv); repaired != 1 {
		t.Fatal("flow not repaired")
	}
	hs := dp.Handles()
	f, ok := dp.Flow(hs[len(hs)-1])
	if !ok || f.Path.Contains(t1) {
		t.Fatalf("repaired path still uses t1: %+v", f)
	}
	if r := dp.Send(hs[len(hs)-1]); !r.Delivered {
		t.Error("repaired flow does not deliver")
	}
}

func TestDataPlaneMetricsString(t *testing.T) {
	var m DataPlaneMetrics
	s := m.String()
	for _, want := range []string{"flows", "resident", "refreshes", "resetups"} {
		if !strings.Contains(s, want) {
			t.Errorf("metrics string missing %q: %s", want, s)
		}
	}
}

func TestDataPlaneRejectsBadConfig(t *testing.T) {
	if _, err := NewDataPlane(pgstate.Config{Kind: "bogus"}); err == nil {
		t.Fatal("bad config accepted")
	}
}

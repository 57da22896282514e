package routeserver

import (
	"strings"
	"testing"

	"repro/internal/ad"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/wire"
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
	if flushed := dp.Control(wire.PlanStep{Op: wire.CtlFail, A: t1, B: dst}); flushed == 0 {
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

// dpChain is a line of five ADs, s-a-b-c-d, with d's flow from s installed
// over all of it.
func dpChain(t *testing.T, cfg pgstate.Config) (*DataPlane, ad.Path, uint64) {
	t.Helper()
	dp, err := NewDataPlane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := ad.Path{1, 2, 3, 4, 5}
	return dp, path, dp.Install(policy.Request{Src: 1, Dst: 5}, path)
}

// held lists the ADs of path whose tables hold h.
func held(dp *DataPlane, path ad.Path, h uint64) ad.Path {
	var out ad.Path
	for _, id := range path {
		if _, ok := dp.tables[id].Peek(dp.now, h); ok {
			out = append(out, id)
		}
	}
	return out
}

// TestDataPlaneFollowsORWG pins the four places where the data plane's own
// hop walks used to differ from ORWG's gateways, each now settled ORWG's
// way by running pgstate.Gateway's rules (TestDriversAgree in package orwg
// runs both drivers side by side).
func TestDataPlaneFollowsORWG(t *testing.T) {
	soft := pgstate.Config{Kind: pgstate.Soft, TTL: 10 * sim.Second}
	t.Run("send does not consult the source's entry", func(t *testing.T) {
		dp, path, h := dpChain(t, soft)
		dp.tables[path[0]].Remove(h)
		if r := dp.Send(h); !r.Delivered {
			t.Fatalf("send = %+v; the source sends on its flow whatever its own table holds", r)
		}
	})
	t.Run("refresh ignores the source's own result", func(t *testing.T) {
		dp, path, h := dpChain(t, soft)
		dp.tables[path[0]].Remove(h)
		if refreshed, failed := dp.RefreshAll(); refreshed != 1 || failed != 0 {
			t.Fatalf("refreshed=%d failed=%d, want 1 and 0", refreshed, failed)
		}
		if got := held(dp, path, h); !got.Equal(path[1:]) {
			t.Errorf("state held at %v, want %v", got, path[1:])
		}
	})
	t.Run("link down flushes at its endpoints; a NAK stops at the first hop without state", func(t *testing.T) {
		dp, path, h := dpChain(t, pgstate.Config{Kind: pgstate.Hard})
		dp.tables[path[2]].Remove(h) // b lost the state
		if flushed := dp.Control(wire.PlanStep{Op: wire.CtlFail, A: path[3], B: path[4]}); flushed != 2 {
			t.Errorf("flushed %d entries, want c's and d's", flushed)
		}
		if got, want := held(dp, path, h), path[:2]; !got.Equal(want) {
			t.Errorf("state held at %v, want %v: the NAK died at b", got, want)
		}
		if m := dp.Metrics(); m.Flows != 1 || m.PendingRepairs != 0 {
			t.Errorf("flows %d, pending repairs %d; the NAK never reached the source", m.Flows, m.PendingRepairs)
		}
	})
	t.Run("a policy change NAKs upstream only", func(t *testing.T) {
		dp, path, h := dpChain(t, pgstate.Config{Kind: pgstate.Hard})
		if flushed := dp.Control(wire.PlanStep{Op: wire.CtlPolicy, A: path[2]}); flushed != 3 {
			t.Errorf("flushed %d entries, want b's, a's and s's", flushed)
		}
		if got, want := held(dp, path, h), path[3:]; !got.Equal(want) {
			t.Errorf("state held at %v, want %v: downstream state is left to its discipline", got, want)
		}
		if m := dp.Metrics(); m.Flows != 0 || m.PendingRepairs != 1 {
			t.Errorf("flows %d, pending repairs %d; want the flow failed and queued", m.Flows, m.PendingRepairs)
		}
	})
}

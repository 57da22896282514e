package orwg

import (
	"testing"

	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/racecheck"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestAllocsHandlePlane pins what the policy gateways' message handlers
// allocate, under each lifecycle discipline, on a flow src>hub>d: a warm
// SendData allocates its payload and its packet and nothing else (the
// handlers forward without allocating); a refresh and a teardown walk the
// route allocating nothing; a data packet that misses at the hub costs one
// more, the NAK the hub builds (passing it on and failing the flow at the
// source allocate nothing). A warm RefreshEstablished round allocates once:
// the handle slice every AD's sorted flow list reuses (its keepalive is the
// one Refresh the system keeps). The NAK and teardown cases reinstall the
// state they remove before the next run.
func TestAllocsHandlePlane(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, st := range []pgstate.Config{
		{Kind: pgstate.Hard},
		{Kind: pgstate.Soft, TTL: 10 * sim.Second},
		{Kind: pgstate.Capped, Capacity: 4},
	} {
		g, sources, d := hubTopology(t, 1)
		s := converged(t, g, policy.OpenDB(g), Config{State: st})
		src := s.node(sources[0])
		req := policy.Request{Src: sources[0], Dst: d}
		res := s.Establish(req)
		if !res.OK {
			t.Fatalf("%s: establish failed", st.Kind)
		}
		h, path := res.Handle, res.Path
		hub := s.node(path[1])
		now := func() sim.Time { return s.nw.Now() }
		// reinstall puts back the entries and the flow a NAK or a teardown
		// took away.
		reinstall := func() {
			for i, id := range path {
				s.node(id).table.Install(now(), h, path, i, req, st.TTL)
			}
			src.flows[h] = flow{path, req}
			delete(src.repair, h)
		}
		refresh := &wire.Refresh{Handle: h, TTLMillis: s.ttlMillis()}
		teardown := &wire.Teardown{Handle: h, Reason: wire.TeardownRepair}
		for _, c := range []struct {
			name string
			want float64
			run  func()
		}{
			{"warm SendData", 2, func() { s.SendData(src.id, h, 8) }},
			{"refresh walk", 0, func() {
				s.nw.SendMessage(src.id, hub.id, refresh)
				s.nw.Engine.Run()
			}},
			{"teardown walk", 0, func() {
				s.nw.SendMessage(src.id, hub.id, teardown)
				s.nw.Engine.Run()
				reinstall()
			}},
			{"data miss and NAK", 3, func() {
				hub.table.Remove(h)
				s.SendData(src.id, h, 8)
				reinstall()
			}},
			{"refresh round", 1, s.RefreshEstablished},
		} {
			c.run() // warm
			if n := testing.AllocsPerRun(100, c.run); n != c.want {
				t.Errorf("%s: %s allocates %v times, want %v", st.Kind, c.name, n, c.want)
			}
		}
		if hs := hub.table.Stats(); hs.Misses == 0 || hs.Refreshes == 0 {
			t.Errorf("%s: the hub saw %d misses and %d refreshes; a case did not reach it", st.Kind, hs.Misses, hs.Refreshes)
		}
	}
}

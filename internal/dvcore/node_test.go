package dvcore

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/racecheck"
	"repro/internal/sim"
	"repro/internal/wire"
)

// testSystem converges a split-horizon design with two QOS classes over a
// four-AD ring with one chord.
func testSystem(t *testing.T) *System {
	t.Helper()
	g := ad.NewGraph()
	var ids [4]ad.ID
	for i := range ids {
		ids[i] = g.AddAD("n", ad.Transit, ad.Regional)
	}
	for _, l := range []ad.Link{
		{A: ids[0], B: ids[1], Cost: 1}, {A: ids[1], B: ids[2], Cost: 1},
		{A: ids[2], B: ids[3], Cost: 1}, {A: ids[3], B: ids[0], Cost: 1},
		{A: ids[0], B: ids[2], Cost: 3},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	s := NewSystem(g, Design{Name: "test", Infinity: 16, Classes: 2,
		Export: func(_, nb ad.ID, e Entry) (wire.DVRoute, bool) {
			return wire.DVRoute{Dest: e.Key.Dest, Metric: e.Metric, QOS: e.Key.QOS}, e.NextHop != nb
		}})
	if _, ok := s.Converge(60 * sim.Second); !ok {
		t.Fatal("did not converge")
	}
	return s
}

// TestSystemConverges: every AD holds its self route in each class and a
// shortest route to every other AD.
func TestSystemConverges(t *testing.T) {
	s := testSystem(t)
	want := [4][4]uint32{{0, 1, 2, 1}, {1, 0, 1, 2}, {2, 1, 0, 1}, {1, 2, 1, 0}}
	for p, id := range s.ids {
		for q, dst := range s.ids {
			for c := 0; c < 2; c++ {
				k := Key{Dest: dst, QOS: policy.QOS(c)}
				if e, ok := s.nodes[p].table.Get(k); !ok || e.Metric != want[p][q] {
					t.Errorf("%v's route to %v: %+v,%v, want metric %d", id, k, e, ok, want[p][q])
				}
			}
		}
	}
	if got := s.StateEntries(); got != 4*4*2 {
		t.Errorf("StateEntries = %d, want 32", got)
	}
}

// TestAllocsDVNode: a warm node allocates nothing to take an update and
// flush what it changed, to answer a table request, or to lose a link and
// get it back. Each runs with the network's reaction to it, so the
// neighbours' Receive and flush count too, and each must send something.
func TestAllocsDVNode(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := testSystem(t)
	nw := s.nw
	n := &s.nodes[0]
	from := n.nbrs[0]
	// from withdraws its self route and offers it again: n's route to
	// from flips unreachable and back, and each flip is flushed.
	withdraw := wire.Marshal(&wire.DVUpdate{Routes: []wire.DVRoute{{Dest: from, Metric: 16, Flags: wire.FlagWithdraw}}})
	offer := wire.Marshal(&wire.DVUpdate{Routes: []wire.DVRoute{{Dest: from}}})
	request := wire.Marshal(&wire.DVUpdate{})
	for _, op := range []struct {
		name string
		fn   func()
	}{
		{"Receive of an update", func() {
			n.Receive(nw, from, withdraw)
			nw.Engine.Run()
			n.Receive(nw, from, offer)
			nw.Engine.Run()
		}},
		{"Receive of a table request", func() {
			n.Receive(nw, from, request)
			nw.Engine.Run()
		}},
		{"LinkDown and LinkUp", func() {
			if err := nw.FailLink(n.id, from); err != nil {
				t.Fatal(err)
			}
			nw.Engine.Run()
			if err := nw.RestoreLink(n.id, from); err != nil {
				t.Fatal(err)
			}
			nw.Engine.Run()
		}},
	} {
		sent := nw.Stats.MessagesSent
		if allocs := testing.AllocsPerRun(50, op.fn); allocs != 0 {
			t.Errorf("%s: %v allocs, want 0", op.name, allocs)
		}
		if nw.Stats.MessagesSent == sent {
			t.Errorf("%s sent nothing", op.name)
		}
	}
}

package orwg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/ad"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/sim"
	"repro/internal/wire"
)

// driverSeeds are the worlds and tapes TestDriversAgree runs.
var driverSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

// driverWorld is a random internet of 4 transits in a ring with a chord and
// 8 stubs, each homed on one or two transits, under open policy. Links take
// a microsecond, so ORWG's clock runs ahead of the data plane's by
// microseconds only; the soft TTL is a whole number of seconds plus a half
// and the tape advances whole seconds, so no deadline falls between them.
func driverWorld(t *testing.T, rng *rand.Rand) *ad.Graph {
	t.Helper()
	g := ad.NewGraph()
	var transits, stubs []ad.ID
	for i := 0; i < 4; i++ {
		transits = append(transits, g.AddAD(fmt.Sprintf("t%d", i), ad.Transit, ad.Regional))
	}
	for i := 0; i < 8; i++ {
		stubs = append(stubs, g.AddAD(fmt.Sprintf("s%d", i), ad.Stub, ad.Campus))
	}
	link := func(a, b ad.ID) {
		if _, ok := g.LinkBetween(a, b); ok {
			return
		}
		if err := g.AddLink(ad.Link{A: a, B: b, Cost: uint32(1 + rng.Intn(3)), DelayMicros: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range transits {
		link(id, transits[(i+1)%len(transits)])
	}
	link(transits[0], transits[2])
	for _, s := range stubs {
		link(s, transits[rng.Intn(len(transits))])
		if rng.Intn(2) == 0 {
			link(s, transits[rng.Intn(len(transits))])
		}
	}
	return g
}

// dataPlaneState reads the data plane's per-AD tables and repair queue.
// DataPlane exports neither, so the test reaches into its fields.
func dataPlaneState(t *testing.T, dp *routeserver.DataPlane) (map[ad.ID]*pgstate.Table, map[uint64]policy.Request) {
	t.Helper()
	v := reflect.ValueOf(dp).Elem()
	field := func(name string, want any) any {
		f := v.FieldByName(name)
		if f.Type() != reflect.TypeOf(want) {
			t.Fatalf("DataPlane.%s is a %v, not a %T", name, f.Type(), want)
		}
		return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
	}
	return field("tables", map[ad.ID]*pgstate.Table(nil)).(map[ad.ID]*pgstate.Table),
		field("repair", map[uint64]policy.Request(nil)).(map[uint64]policy.Request)
}

// TestDriversAgree is the differential test of pgstate.Gateway's two
// drivers: ORWG's simulated gateways, which send each action as a message,
// and routeserver.DataPlane, which applies it at once. Under hard, soft and
// capped state, both install the same paths and then run the same seeded
// tape of data packets, refresh rounds, clock advances, link failures and
// restores, and policy changes; after every event both must hold the same
// handles at every AD, the same live flows and the same repair queue, and
// a data packet must be delivered by both or by neither.
func TestDriversAgree(t *testing.T) {
	for _, st := range []pgstate.Config{
		{Kind: pgstate.Hard},
		{Kind: pgstate.Soft, TTL: 10*sim.Second + 500*sim.Millisecond},
		{Kind: pgstate.Capped, Capacity: 6},
	} {
		for _, seed := range driverSeeds {
			driversAgree(t, st, seed)
		}
	}
}

func driversAgree(t *testing.T, st pgstate.Config, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g := driverWorld(t, rng)
	db := policy.OpenDB(g)
	s := converged(t, g, db, Config{State: st})
	dp, err := routeserver.NewDataPlane(st)
	if err != nil {
		t.Fatal(err)
	}
	tables, repair := dataPlaneState(t, dp)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s state, seed %d: %s", st.Kind, seed, fmt.Sprintf(format, args...))
	}

	// The same paths, established by ORWG's route servers and installed in
	// the data plane in the same order; toDP maps ORWG's handles to its.
	ids := g.IDs()
	toDP := make(map[uint64]uint64)
	var flows [][2]uint64 // ORWG handle, source AD
	for len(flows) < 16 {
		req := policy.Request{Src: ids[rng.Intn(len(ids))], Dst: ids[rng.Intn(len(ids))]}
		if req.Src == req.Dst {
			continue
		}
		res := s.Establish(req)
		if !res.OK {
			fail("establish %v failed: code %d at %v", req, res.FailCode, res.FailedAt)
		}
		toDP[res.Handle] = dp.Install(req, res.Path)
		flows = append(flows, [2]uint64{res.Handle, uint64(req.Src)})
	}
	mapped := func(hs []uint64) []uint64 {
		out := make([]uint64, 0, len(hs))
		for _, h := range hs {
			out = append(out, toDP[h])
		}
		slices.Sort(out)
		return out
	}
	check := func(ev int, what string) {
		t.Helper()
		var live, queued []uint64
		for _, n := range s.nodes {
			var want []uint64
			if tab := tables[n.id]; tab != nil {
				want = tab.Handles()
			}
			if got := mapped(n.table.Handles()); !slices.Equal(got, want) && len(got)+len(want) > 0 {
				fail("event %d (%s): %v holds %v under ORWG, %v in the data plane", ev, what, n.id, got, want)
			}
			for h := range n.flows {
				live = append(live, h)
			}
			for h := range n.repair {
				queued = append(queued, h)
			}
		}
		if got, want := mapped(live), dp.Handles(); !slices.Equal(got, want) {
			fail("event %d (%s): live flows %v under ORWG, %v in the data plane", ev, what, got, want)
		}
		want := make([]uint64, 0, len(repair))
		for h := range repair {
			want = append(want, h)
		}
		slices.Sort(want)
		if got := mapped(queued); !slices.Equal(got, want) {
			fail("event %d (%s): repair queue %v under ORWG, %v in the data plane", ev, what, got, want)
		}
	}
	check(0, "install")

	links := g.Links()
	var down []ad.Link
	for ev := 1; ev <= 40; ev++ {
		var what string
		switch r := rng.Intn(20); {
		case r < 7:
			f := flows[rng.Intn(len(flows))]
			got, _ := s.SendData(ad.ID(f[1]), f[0], 8)
			want := dp.Send(toDP[f[0]]).Delivered
			what = fmt.Sprintf("send %d", toDP[f[0]])
			if got != want {
				fail("event %d (%s): delivered %v under ORWG, %v in the data plane", ev, what, got, want)
			}
		case r < 10:
			what = "refresh"
			s.RefreshEstablished()
			dp.RefreshAll()
		case r < 13:
			d := sim.Time(1+rng.Intn(8)) * sim.Second
			what = fmt.Sprintf("advance %v", d)
			s.Advance(d)
			dp.Tick(d)
		case r < 15:
			i := rng.Intn(len(links))
			l := links[i]
			links = slices.Delete(links, i, i+1)
			down = append(down, l)
			what = fmt.Sprintf("fail %v-%v", l.A, l.B)
			if err := s.FailLink(l.A, l.B); err != nil {
				t.Fatal(err)
			}
			dp.Control(wire.PlanStep{Op: wire.CtlFail, A: l.A, B: l.B})
		case r < 16 && len(down) > 0:
			l := down[len(down)-1]
			down = down[:len(down)-1]
			links = append(links, l)
			what = fmt.Sprintf("restore %v-%v", l.A, l.B)
			if err := s.nw.RestoreLink(l.A, l.B); err != nil {
				t.Fatal(err)
			}
			s.nw.Engine.Run()
			dp.Control(wire.PlanStep{Op: wire.CtlRestore, A: l.A, B: l.B})
		default:
			id := ids[rng.Intn(4)] // a transit
			var terms []policy.Term
			for n := rng.Intn(3); n > 0; n-- {
				term := policy.OpenTerm(id, 0)
				switch rng.Intn(3) {
				case 0:
					term.Sources = policy.SetOf(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
				case 1:
					term.NextADs = policy.SetOf(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
				}
				terms = append(terms, term)
			}
			what = fmt.Sprintf("policy %v (%d terms)", id, len(terms))
			if err := s.UpdatePolicy(id, terms); err != nil {
				t.Fatal(err)
			}
			dp.Control(wire.PlanStep{Op: wire.CtlPolicy, A: id, Terms: terms})
		}
		check(ev, what)
	}
}

package core_test

import (
	"strings"
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/idrp"
	"repro/internal/protocols/lshh"
	"repro/internal/protocols/orwg"
	"repro/internal/protocols/plaindv"
	"repro/internal/racecheck"
	"repro/internal/sim"
	"repro/internal/topology"
)

func seconds(s int) sim.Time { return sim.Time(s) * sim.Second }

func TestOracle(t *testing.T) {
	topo := topology.Figure1()
	db := policy.OpenDB(topo.Graph)
	oracle := core.Oracle{G: topo.Graph, DB: db}
	ids := topo.Graph.IDs()
	req := policy.Request{Src: ids[5], Dst: ids[9]}
	if !oracle.HasRoute(req) {
		t.Error("no route on open Figure 1")
	}
	if cost, ok := oracle.BestCost(req); !ok || cost == 0 {
		t.Errorf("BestCost = %d,%v", cost, ok)
	}
	if oracle.Legal(ad.Path{ids[5], ids[9]}, req) {
		t.Error("non-adjacent direct path reported legal")
	}
}

func TestAllPairsRequests(t *testing.T) {
	topo := topology.Figure1()
	stubs := 0
	for _, info := range topo.Graph.ADs() {
		if info.Class == ad.Stub || info.Class == ad.MultihomedStub {
			stubs++
		}
	}
	reqs := core.AllPairsRequests(topo.Graph, true, 1, 2)
	if len(reqs) != stubs*(stubs-1) {
		t.Errorf("requests = %d, want %d", len(reqs), stubs*(stubs-1))
	}
	for _, r := range reqs {
		if r.Src == r.Dst {
			t.Error("self request generated")
		}
		if r.QOS != 1 || r.UCI != 2 {
			t.Error("classes not propagated")
		}
	}
	all := core.AllPairsRequests(topo.Graph, false, 0, 0)
	n := topo.Graph.NumADs()
	if len(all) != n*(n-1) {
		t.Errorf("all-pairs = %d, want %d", len(all), n*(n-1))
	}
}

func TestRunScenarioOpenPolicy(t *testing.T) {
	topo := topology.Figure1()
	db := policy.OpenDB(topo.Graph)
	oracle := core.Oracle{G: topo.Graph, DB: db}
	reqs := core.AllPairsRequests(topo.Graph, true, 0, 0)

	systems := []core.System{
		plaindv.New(topo.Graph, plaindv.Config{SplitHorizon: true}),
		ecma.New(topo.Graph, db, ecma.Config{}),
		idrp.New(topo.Graph, db, idrp.Config{}),
		lshh.New(topo.Graph, db, lshh.Config{}),
		orwg.New(topo.Graph, db, orwg.Config{}),
	}
	for _, sys := range systems {
		m := core.RunScenario(sys, oracle, reqs, seconds(600))
		if !m.Quiesced {
			t.Errorf("%s did not quiesce", sys.Name())
		}
		if m.Requests != len(reqs) || m.OracleRoutable != len(reqs) {
			t.Errorf("%s: requests=%d routable=%d want %d", sys.Name(), m.Requests, m.OracleRoutable, len(reqs))
		}
		// Under open policy every policy-aware protocol achieves full
		// availability; plain DV may cut through stubs (illegal).
		if sys.Name() != "plain-dv" && m.Availability() < 1 {
			t.Errorf("%s availability = %.3f, want 1.0 (delivered-legal %d, illegal %d, loops %d, blackholed %d)",
				sys.Name(), m.Availability(), m.DeliveredLegal, m.DeliveredIllegal, m.Looped, m.Blackholed)
		}
		if m.Messages == 0 || m.Bytes == 0 {
			t.Errorf("%s: zero traffic recorded", sys.Name())
		}
		if !strings.Contains(m.String(), sys.Name()) {
			t.Errorf("metrics string missing protocol name: %s", m)
		}
	}
}

func TestRunScenarioRestrictedPolicyOrdering(t *testing.T) {
	// The paper's central claim (T1/E1): under source-specific policy,
	// availability orders ORWG >= LSHH >= IDRP, and ECMA leaks illegal
	// deliveries.
	topo := topology.Generate(topology.Config{Seed: 31, LateralProb: 0.3, BypassProb: 0.2})
	db := policy.Generate(topo.Graph, policy.GenConfig{
		Seed: 32, SourceRestrictionProb: 0.8, SourceFraction: 0.4,
	})
	oracle := core.Oracle{G: topo.Graph, DB: db}
	reqs := core.AllPairsRequests(topo.Graph, true, 0, 0)

	run := func(sys core.System) core.Metrics {
		return core.RunScenario(sys, oracle, reqs, seconds(600))
	}
	mOrwg := run(orwg.New(topo.Graph, db, orwg.Config{}))
	mLshh := run(lshh.New(topo.Graph, db, lshh.Config{}))
	mIdrp := run(idrp.New(topo.Graph, db, idrp.Config{}))
	mEcma := run(ecma.New(topo.Graph, db, ecma.Config{}))

	if mOrwg.Availability() < 0.999 {
		t.Errorf("orwg availability = %.3f, want 1.0", mOrwg.Availability())
	}
	if mLshh.Availability() > mOrwg.Availability()+1e-9 {
		t.Errorf("lshh %.3f > orwg %.3f", mLshh.Availability(), mOrwg.Availability())
	}
	if mIdrp.Availability() > mLshh.Availability()+1e-9 {
		t.Errorf("idrp %.3f > lshh %.3f", mIdrp.Availability(), mLshh.Availability())
	}
	if mIdrp.Availability() >= mOrwg.Availability() {
		t.Errorf("idrp %.3f not below orwg %.3f under heavy source restriction",
			mIdrp.Availability(), mOrwg.Availability())
	}
	if mEcma.DeliveredIllegal == 0 {
		t.Error("ecma produced no illegal deliveries under source-specific policy")
	}
	if mOrwg.DeliveredIllegal != 0 {
		t.Errorf("orwg delivered %d illegal paths", mOrwg.DeliveredIllegal)
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := core.Metrics{OracleRoutable: 4, DeliveredLegal: 3, StretchSum: 4.5}
	if m.Availability() != 0.75 {
		t.Errorf("availability = %v", m.Availability())
	}
	if m.Stretch() != 1.5 {
		t.Errorf("stretch = %v", m.Stretch())
	}
	empty := core.Metrics{}
	if empty.Availability() != 1 || empty.Stretch() != 0 {
		t.Error("empty metrics helpers wrong")
	}
}

// TestOracleFollowsMutations: an oracle that holds a compiled snapshot must
// notice that the graph or the database moved on and answer for what they
// are now, not for what it compiled; the literal form compiles per question
// and cannot go stale.
func TestOracleFollowsMutations(t *testing.T) {
	g := ad.NewGraph()
	s := g.AddAD("s", ad.Stub, ad.Campus)
	m := g.AddAD("m", ad.Transit, ad.Regional)
	d := g.AddAD("d", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{{A: s, B: m}, {A: m, B: d}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.OpenDB(g)
	req := policy.Request{Src: s, Dst: d}
	for name, oracle := range map[string]core.Oracle{
		"NewOracle": core.NewOracle(g, db),
		"literal":   {G: g, DB: db},
	} {
		if !oracle.HasRoute(req) {
			t.Fatalf("%s: no route s-m-d", name)
		}
		g.RemoveLink(m, d)
		if oracle.HasRoute(req) {
			t.Errorf("%s: still routes over the removed link m-d", name)
		}
		if err := g.AddLink(ad.Link{A: m, B: d}); err != nil {
			t.Fatal(err)
		}
		if cost, ok := oracle.BestCost(req); !ok || cost != 3 {
			t.Errorf("%s: after the restore BestCost = %d, %v, want 3, true", name, cost, ok)
		}
		terms := db.Terms(m)
		db.SetTerms(m, nil)
		if oracle.HasRoute(req) {
			t.Errorf("%s: still routes through m, which withdrew its terms", name)
		}
		db.SetTerms(m, terms)
		if !oracle.HasRoute(req) {
			t.Errorf("%s: no route after m's terms came back", name)
		}
	}
}

// TestForward walks next-hop tables 1 -> 2 -> 3 and variants of them: a
// delivery, a loop, a black hole, an unknown AD, and a walk that starts at
// its destination.
func TestForward(t *testing.T) {
	tables := map[ad.ID]map[ad.ID]ad.ID{1: {3: 2}, 2: {3: 3}, 3: {}}
	next := func(cur, _ ad.ID) ad.ID {
		if tbl, ok := tables[cur]; ok {
			return tbl[3]
		}
		return ad.Invalid
	}
	check := func(name string, got core.Outcome, want ad.Path, delivered, looped bool) {
		t.Helper()
		if !got.Path.Equal(want) || got.Delivered != delivered || got.Looped != looped {
			t.Errorf("%s: path=%v delivered=%v looped=%v, want %v %v %v",
				name, got.Path, got.Delivered, got.Looped, want, delivered, looped)
		}
	}
	check("delivered", core.Forward(1, 3, next), ad.Path{1, 2, 3}, true, false)
	check("at the destination", core.Forward(3, 3, next), ad.Path{3}, true, false)
	check("unknown AD", core.Forward(9, 3, next), ad.Path{9}, false, false)

	tables[2][3] = 1
	check("loop", core.Forward(1, 3, next), ad.Path{1, 2, 1}, false, true)

	delete(tables[2], 3)
	check("black hole", core.Forward(1, 3, next), ad.Path{1, 2}, false, false)

	// A longer loop ends with the AD it revisits, and next sees the hop
	// each AD was entered from: none at the source, then the previous AD.
	ring := map[ad.ID]ad.ID{1: 2, 2: 3, 3: 4, 4: 2}
	var prevs []ad.ID
	out := core.Forward(1, 9, func(cur, prev ad.ID) ad.ID {
		prevs = append(prevs, prev)
		return ring[cur]
	})
	check("ring", out, ad.Path{1, 2, 3, 4, 2}, false, true)
	if want := []ad.ID{ad.Invalid, 1, 2, 3}; !ad.Path(prevs).Equal(want) {
		t.Errorf("prev hops = %v, want %v", prevs, want)
	}
}

// TestAllocsForward: a walk allocates once, for the path it returns,
// whether it is delivered, loops or ends in a black hole, and however many
// hops it takes up to the length the experiments' internets produce.
func TestAllocsForward(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	line := func(cur, _ ad.ID) ad.ID { return cur + 1 }
	ring := func(cur, _ ad.ID) ad.ID { return cur%12 + 1 }
	hole := func(cur, _ ad.ID) ad.ID {
		if cur < 12 {
			return cur + 1
		}
		return ad.Invalid
	}
	for _, walk := range []struct {
		name string
		dst  ad.ID
		next func(cur, prev ad.ID) ad.ID
		hops int
	}{
		{"delivered", 20, line, 20},
		{"looped", 99, ring, 13},
		{"black hole", 99, hole, 12},
	} {
		var out core.Outcome
		if n := testing.AllocsPerRun(100, func() { out = core.Forward(1, walk.dst, walk.next) }); n != 1 {
			t.Errorf("%s: %v allocs, want 1", walk.name, n)
		}
		if len(out.Path) != walk.hops {
			t.Errorf("%s: path %v, want %d hops", walk.name, out.Path, walk.hops)
		}
	}
}

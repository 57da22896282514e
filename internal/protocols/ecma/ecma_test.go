package ecma

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/dvcore"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

var _ core.System = (*System)(nil)

func seconds(s int) sim.Time { return sim.Time(s) * sim.Second }

func figure1System(t *testing.T, cfg Config) (*System, *topology.Topology, *policy.DB) {
	t.Helper()
	topo := topology.Figure1()
	db := policy.OpenDB(topo.Graph)
	s := New(topo.Graph, db, cfg)
	if _, ok := s.Converge(seconds(300)); !ok {
		t.Fatal("did not converge")
	}
	return s, topo, db
}

func TestConvergesAndDeliversAllPairs(t *testing.T) {
	s, topo, db := figure1System(t, Config{})
	oracle := core.Oracle{G: topo.Graph, DB: db}
	for _, src := range topo.Graph.IDs() {
		for _, dst := range topo.Graph.IDs() {
			if src == dst {
				continue
			}
			req := policy.Request{Src: src, Dst: dst}
			out := s.Route(req)
			if !out.Delivered {
				t.Errorf("%v->%v not delivered", src, dst)
				continue
			}
			if out.Looped {
				t.Errorf("%v->%v looped: %v", src, dst, out.Path)
			}
			if !oracle.Legal(out.Path, req) {
				t.Errorf("%v->%v illegal path under open policy: %v", src, dst, out.Path)
			}
		}
	}
}

func TestStubsDoNotTransit(t *testing.T) {
	// Traffic between two stubs sharing a regional must not route through
	// any other stub (stubs advertise no third-party routes).
	s, topo, _ := figure1System(t, Config{})
	stubs := make(map[ad.ID]bool)
	for _, info := range topo.Graph.ADs() {
		if info.Class == ad.Stub || info.Class == ad.MultihomedStub {
			stubs[info.ID] = true
		}
	}
	for _, src := range topo.Graph.IDs() {
		for _, dst := range topo.Graph.IDs() {
			if src == dst {
				continue
			}
			out := s.Route(policy.Request{Src: src, Dst: dst})
			for i := 1; i < len(out.Path)-1; i++ {
				if stubs[out.Path[i]] {
					t.Errorf("%v->%v transits stub %v: %v", src, dst, out.Path[i], out.Path)
				}
			}
		}
	}
}

func TestUpDownRuleOnPaths(t *testing.T) {
	// Every forwarding path must satisfy the up/down (valley-free) rule.
	s, topo, _ := figure1System(t, Config{})
	for _, src := range topo.Graph.IDs() {
		for _, dst := range topo.Graph.IDs() {
			if src == dst {
				continue
			}
			out := s.Route(policy.Request{Src: src, Dst: dst})
			if out.Delivered && !s.order.UpDownValid(out.Path) {
				t.Errorf("%v->%v path violates up/down rule: %v", src, dst, out.Path)
			}
		}
	}
}

func TestQOSFIBs(t *testing.T) {
	// Transit r2 offers QOS {0,1}; r3 offers only {0}. QOS-1 traffic
	// between stubs under them must avoid r3.
	g := ad.NewGraph()
	s1 := g.AddAD("s1", ad.Stub, ad.Campus)
	r2 := g.AddAD("r2", ad.Transit, ad.Regional)
	r3 := g.AddAD("r3", ad.Transit, ad.Regional)
	s2 := g.AddAD("s2", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: s1, B: r2, Cost: 5}, {A: r2, B: s2, Cost: 5}, // QOS 0+1, costlier
		{A: s1, B: r3, Cost: 1}, {A: r3, B: s2, Cost: 1}, // QOS 0 only, cheap
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.NewDB()
	t2 := policy.OpenTerm(r2, 0)
	t2.QOS = policy.ClassSetOf(0, 1)
	db.Add(t2)
	t3 := policy.OpenTerm(r3, 0)
	t3.QOS = policy.ClassSetOf(0)
	db.Add(t3)

	sys := New(g, db, Config{QOSClasses: 2})
	if _, ok := sys.Converge(seconds(300)); !ok {
		t.Fatal("did not converge")
	}
	// QOS 0: cheap path via r3.
	out := sys.Route(policy.Request{Src: s1, Dst: s2, QOS: 0})
	if !out.Delivered || !out.Path.Contains(r3) {
		t.Errorf("QOS0 path = %v, want via r3", out.Path)
	}
	// QOS 1: r3 does not offer it; must go via r2.
	out = sys.Route(policy.Request{Src: s1, Dst: s2, QOS: 1})
	if !out.Delivered || !out.Path.Contains(r2) {
		t.Errorf("QOS1 path = %v, want via r2", out.Path)
	}
	// State: per-QOS FIB replication (4 nodes x 4 dests x 2 QOS) minus
	// entries never learned for unsupported classes.
	if got := sys.StateEntries(); got <= 16 {
		t.Errorf("per-QOS FIBs not replicated: state = %d", got)
	}
}

func TestDestinationExportFilter(t *testing.T) {
	// Transit only carries traffic destined to d1, not d2.
	g := ad.NewGraph()
	src := g.AddAD("src", ad.Stub, ad.Campus)
	tr := g.AddAD("tr", ad.Transit, ad.Regional)
	d1 := g.AddAD("d1", ad.Stub, ad.Campus)
	d2 := g.AddAD("d2", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{{A: src, B: tr}, {A: tr, B: d1}, {A: tr, B: d2}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.NewDB()
	term := policy.OpenTerm(tr, 0)
	term.Dests = policy.SetOf(d1)
	db.Add(term)
	sys := New(g, db, Config{})
	sys.Converge(seconds(300))
	if out := sys.Route(policy.Request{Src: src, Dst: d1}); !out.Delivered {
		t.Error("allowed destination not delivered")
	}
	if out := sys.Route(policy.Request{Src: src, Dst: d2}); out.Delivered {
		t.Errorf("filtered destination delivered: %v", out.Path)
	}
}

func TestSourceSpecificPolicyViolated(t *testing.T) {
	// ECMA cannot express source-specific terms: traffic from a
	// forbidden source is still delivered (illegally). This is the
	// limitation the paper's recommended architecture fixes.
	g := ad.NewGraph()
	s1 := g.AddAD("s1", ad.Stub, ad.Campus)
	s2 := g.AddAD("s2", ad.Stub, ad.Campus)
	tr := g.AddAD("tr", ad.Transit, ad.Regional)
	d := g.AddAD("d", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{{A: s1, B: tr}, {A: s2, B: tr}, {A: tr, B: d}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.NewDB()
	term := policy.OpenTerm(tr, 0)
	term.Sources = policy.SetOf(s1) // only s1 may transit tr
	db.Add(term)
	sys := New(g, db, Config{})
	sys.Converge(seconds(300))
	oracle := core.Oracle{G: g, DB: db}
	reqOK := policy.Request{Src: s1, Dst: d}
	reqBad := policy.Request{Src: s2, Dst: d}
	outOK := sys.Route(reqOK)
	outBad := sys.Route(reqBad)
	if !outOK.Delivered || !oracle.Legal(outOK.Path, reqOK) {
		t.Errorf("allowed source: %+v", outOK)
	}
	if !outBad.Delivered {
		t.Fatal("ECMA unexpectedly blocked the forbidden source")
	}
	if oracle.Legal(outBad.Path, reqBad) {
		t.Error("forbidden source's path reported legal — oracle broken")
	}
}

func TestReconvergenceAfterFailure(t *testing.T) {
	s, topo, _ := figure1System(t, Config{})
	before := s.Network().Stats.MessagesSent
	// Fail one regional-backbone link with an alternative (regional-2 has
	// the lateral to regional-3).
	var victim ad.Link
	for _, l := range topo.Graph.Links() {
		ia, _ := topo.Graph.AD(l.A)
		ib, _ := topo.Graph.AD(l.B)
		if ia.Level == ad.Backbone && ib.Level == ad.Regional && ib.Name == "regional-2" {
			victim = l
			break
		}
	}
	if victim.A == ad.Invalid && victim.B == ad.Invalid {
		t.Fatal("victim link not found")
	}
	if err := s.FailLink(victim.A, victim.B); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Converge(seconds(600)); !ok {
		t.Fatal("did not reconverge")
	}
	if s.Network().Stats.MessagesSent == before {
		t.Error("no messages after failure")
	}
	// All pairs still deliverable (graph remains connected).
	for _, src := range topo.Graph.IDs() {
		for _, dst := range topo.Graph.IDs() {
			if src == dst {
				continue
			}
			out := s.Route(policy.Request{Src: src, Dst: dst})
			if out.Looped {
				t.Errorf("%v->%v looped after failure", src, dst)
			}
		}
	}
}

func TestOrderingPreventsCountToInfinity(t *testing.T) {
	// Compare reconvergence message counts with and without the up/down
	// rule on a cyclic topology after a partition-causing failure.
	run := func(disable bool) uint64 {
		g := ad.NewGraph()
		bb := g.AddAD("bb", ad.Transit, ad.Backbone)
		r1 := g.AddAD("r1", ad.Transit, ad.Regional)
		r2 := g.AddAD("r2", ad.Transit, ad.Regional)
		leaf := g.AddAD("leaf", ad.Stub, ad.Campus)
		for _, l := range []ad.Link{
			{A: bb, B: r1}, {A: bb, B: r2}, {A: r1, B: r2, Class: ad.Lateral},
			{A: r2, B: leaf},
		} {
			if err := g.AddLink(l); err != nil {
				t.Fatal(err)
			}
		}
		db := policy.OpenDB(g)
		s := New(g, db, Config{DisableOrdering: disable})
		s.Converge(seconds(300))
		before := s.Network().Stats.MessagesSent
		s.FailLink(r2, leaf) // leaf unreachable
		s.Converge(seconds(3000))
		return s.Network().Stats.MessagesSent - before
	}
	withRule := run(false)
	withoutRule := run(true)
	if withoutRule <= withRule {
		t.Errorf("ordering shows no benefit: with=%d without=%d", withRule, withoutRule)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() uint64 {
		topo := topology.Figure1()
		s := New(topo.Graph, policy.OpenDB(topo.Graph), Config{Seed: 3})
		s.Converge(seconds(300))
		return s.Network().Stats.MessagesSent
	}
	if run() != run() {
		t.Error("nondeterministic message count")
	}
}

func TestTableAccessors(t *testing.T) {
	s, topo, _ := figure1System(t, Config{})
	id := topo.Graph.IDs()[0]
	if s.StateEntries() == 0 || s.Computations() == 0 {
		t.Error("counters zero after convergence")
	}
	// Self routes exist per QOS class.
	if _, ok := s.nodes[id].table.Get(dvcore.Key{Dest: id, QOS: 0}); !ok {
		t.Error("self route missing")
	}
}

func TestUCINotExpressible(t *testing.T) {
	// "ECMA is not well-suited to express finer grained policies based on
	// such things as User Class Identifier" (§5.1.1): a UCI-restricted
	// transit still carries excluded user classes, because ECMA updates
	// carry no UCI information.
	g := ad.NewGraph()
	src := g.AddAD("src", ad.Stub, ad.Campus)
	tr := g.AddAD("tr", ad.Transit, ad.Regional)
	dst := g.AddAD("dst", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{{A: src, B: tr}, {A: tr, B: dst}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.NewDB()
	term := policy.OpenTerm(tr, 0)
	term.UCI = policy.ClassSetOf(0) // user class 1 is forbidden
	db.Add(term)
	sys := New(g, db, Config{})
	sys.Converge(seconds(300))
	oracle := core.Oracle{G: g, DB: db}
	req := policy.Request{Src: src, Dst: dst, UCI: 1}
	out := sys.Route(req)
	if !out.Delivered {
		t.Fatal("ECMA dropped the traffic — it should be unable to enforce UCI at all")
	}
	if oracle.Legal(out.Path, req) {
		t.Error("UCI-forbidden delivery reported legal — oracle broken")
	}
}

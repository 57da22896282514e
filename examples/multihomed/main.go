// Multihomed: the paper's motivating policy scenario (§2.1). A multi-homed
// stub AD has two providers but must never carry transit traffic, and one
// regional restricts which sources may use it. The example shows how each
// architecture behaves: plain DV cuts through the stub (policy violation),
// ECMA cannot express the source restriction (violation), IDRP hides the
// legal detour (blackhole), and ORWG delivers legally.
package main

import (
	"fmt"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/protocols"
	"repro/internal/sim"
)

func main() {
	// Topology:
	//
	//	 s1 --- r1 ---- d
	//	  \    /  \    /
	//	   \  /    \  /
	//	    mh ---- r2
	//
	// mh is a multi-homed stub (providers r1, r2) that refuses transit.
	// r1 is cheap but only carries traffic from d; r2 is open but dear.
	g := ad.NewGraph()
	s1 := g.AddAD("s1", ad.Stub, ad.Campus)
	mh := g.AddAD("mh", ad.MultihomedStub, ad.Campus)
	r1 := g.AddAD("r1", ad.Transit, ad.Regional)
	r2 := g.AddAD("r2", ad.Transit, ad.Regional)
	d := g.AddAD("d", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: s1, B: r1, Cost: 1}, {A: s1, B: mh, Cost: 1},
		{A: mh, B: r1, Cost: 1}, {A: mh, B: r2, Cost: 1},
		{A: r1, B: d, Cost: 1}, {A: r2, B: d, Cost: 4},
		{A: r1, B: r2, Cost: 1, Class: ad.Lateral},
		{A: s1, B: r2, Cost: 4, Class: ad.Lateral},
	} {
		if err := g.AddLink(l); err != nil {
			panic(err)
		}
	}
	db := policy.NewDB()
	restricted := policy.OpenTerm(r1, 0)
	restricted.Sources = policy.SetOf(d) // r1 carries only d's traffic
	restricted.Cost = 1
	db.Add(restricted)
	open := policy.OpenTerm(r2, 0)
	open.Cost = 4
	db.Add(open)
	// mh advertises no terms at all: multi-homed, but never transit.

	oracle := core.Oracle{G: g, DB: db}
	req := policy.Request{Src: s1, Dst: d}
	fmt.Printf("request: %v\n", req)
	fmt.Printf("a legal route exists: %v — not via mh (refuses transit), not via r1 (carries only d's traffic): only s1->r2->d is legal\n\n",
		oracle.HasRoute(req))

	for _, name := range []string{"plain-dv", "ecma", "idrp", "orwg"} {
		sys := protocols.Lookup(name).New(g, db)
		sys.Converge(60 * sim.Second)
		out := sys.Route(req)
		verdict := "BLACKHOLE (legal route hidden)"
		switch {
		case out.Delivered && oracle.Legal(out.Path, req):
			verdict = "delivered legally"
		case out.Delivered:
			verdict = "POLICY VIOLATION"
		case out.Looped:
			verdict = "LOOP"
		}
		fmt.Printf("%-14s path=%-28v %s\n", sys.Name(), out.Path, verdict)
	}
}

package ecma

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/ordering"
	"repro/internal/policy"
	"repro/internal/topology"
)

// TestCustomOrderingFromConstraints ties E10's machinery to the protocol:
// a central authority collects the ADs' topological policies as ordering
// constraints, negotiates away conflicts, builds the partial ordering, and
// ECMA runs on it.
func TestCustomOrderingFromConstraints(t *testing.T) {
	topo := topology.Figure1()
	g := topo.Graph
	// Each non-backbone AD expresses "my parent must rank above me",
	// plus one deliberately conflicting pair to force negotiation.
	var cons []ordering.Constraint
	for child, parent := range topo.Parent {
		cons = append(cons, ordering.Constraint{Above: parent, Below: child})
	}
	bb := topo.ByLevel[ad.Backbone]
	cons = append(cons,
		ordering.Constraint{Above: bb[0], Below: bb[1]},
		ordering.Constraint{Above: bb[1], Below: bb[0]}, // conflict
	)
	if _, ok := ordering.FromConstraints(nil, cons); ok {
		t.Fatal("conflicting constraints reported satisfiable")
	}
	kept, rounds := ordering.Negotiate(cons)
	if rounds == 0 {
		t.Fatal("negotiation dropped nothing")
	}
	order, ok := ordering.FromConstraints(g.IDs(), kept)
	if !ok {
		t.Fatal("negotiated constraints still unsatisfiable")
	}

	db := policy.OpenDB(g)
	sys := NewWithOrdering(g, db, order, Config{})
	if _, ok := sys.Converge(seconds(300)); !ok {
		t.Fatal("did not converge under negotiated ordering")
	}
	delivered := 0
	for _, src := range g.IDs() {
		for _, dst := range g.IDs() {
			if src == dst {
				continue
			}
			out := sys.Route(policy.Request{Src: src, Dst: dst})
			if out.Looped {
				t.Errorf("%v->%v looped under negotiated ordering", src, dst)
			}
			if out.Delivered {
				delivered++
			}
		}
	}
	// The negotiated ordering must still deliver the vast majority of
	// pairs (the dropped constraint may sacrifice some valley-free
	// routes, which is the negotiation's documented cost).
	n := g.NumADs()
	if delivered < (n*(n-1))*8/10 {
		t.Errorf("delivered only %d/%d pairs under negotiated ordering", delivered, n*(n-1))
	}
}

package ordering_test

import (
	"fmt"

	"repro/internal/ad"
	"repro/internal/ordering"
)

// ExampleNegotiate shows the paper's §5.1.1 concern: individually
// reasonable topological policies can be jointly unsatisfiable, requiring a
// central authority to negotiate one away. A set is satisfiable exactly
// when negotiating it drops nothing.
func ExampleNegotiate() {
	cons := []ordering.Constraint{
		{Above: 1, Below: 2}, // AD1 insists on being AD2's provider
		{Above: 2, Below: 3}, // AD2 insists on being AD3's provider
		{Above: 3, Below: 1}, // AD3 insists on being AD1's provider
	}
	kept, rounds := ordering.Negotiate(cons)
	fmt.Println("satisfiable:", rounds == 0)
	fmt.Println("after negotiation:", len(kept), "constraints kept,", rounds, "dropped")
	_, again := ordering.Negotiate(kept)
	fmt.Println("now satisfiable:", again == 0)
	// Output:
	// satisfiable: false
	// after negotiation: 2 constraints kept, 1 dropped
	// now satisfiable: true
}

// ExampleOrdering_UpDownValid demonstrates the ECMA up/down forwarding
// rule on a tiny hierarchy.
func ExampleOrdering_UpDownValid() {
	cons := []ordering.Constraint{
		{Above: 1, Below: 2}, // backbone above regional
		{Above: 2, Below: 3}, // regional above campus
		{Above: 2, Below: 4},
	}
	o, _ := ordering.FromConstraints([]ad.ID{1, 2, 3, 4}, cons)
	fmt.Println(o.UpDownValid(ad.Path{3, 2, 4})) // up to the regional, down to a sibling
	fmt.Println(o.UpDownValid(ad.Path{2, 3, 2})) // down then up: forbidden
	// Output:
	// true
	// false
}

package synthesis_test

import (
	"fmt"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/synthesis"
)

// ExampleSnapshot_FindRoute demonstrates policy route synthesis: the cheap transit
// refuses the source, so the route detours through the expensive one.
func ExampleSnapshot_FindRoute() {
	g := ad.NewGraph()
	src := g.AddAD("src", ad.Stub, ad.Campus)
	cheap := g.AddAD("cheap", ad.Transit, ad.Regional)
	dear := g.AddAD("dear", ad.Transit, ad.Regional)
	dst := g.AddAD("dst", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: src, B: cheap, Cost: 1}, {A: cheap, B: dst, Cost: 1},
		{A: src, B: dear, Cost: 5}, {A: dear, B: dst, Cost: 5},
	} {
		if err := g.AddLink(l); err != nil {
			panic(err)
		}
	}

	db := policy.NewDB()
	restricted := policy.OpenTerm(cheap, 0)
	restricted.Sources = policy.SetOf(dst) // cheap carries only dst's traffic
	db.Add(restricted)
	db.Add(policy.OpenTerm(dear, 0))

	res := synthesis.Compile(g, db).FindRoute(policy.Request{Src: src, Dst: dst})
	fmt.Println(res.Found, res.Path)
	// Output: true AD1>AD3>AD4
}

// ExampleEnumeratePaths lists every legal route, which the experiments use
// as the ground-truth oracle.
func ExampleEnumeratePaths() {
	g := ad.NewGraph()
	src := g.AddAD("src", ad.Stub, ad.Campus)
	t1 := g.AddAD("t1", ad.Transit, ad.Regional)
	t2 := g.AddAD("t2", ad.Transit, ad.Regional)
	dst := g.AddAD("dst", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: src, B: t1}, {A: t1, B: dst},
		{A: src, B: t2}, {A: t2, B: dst},
	} {
		if err := g.AddLink(l); err != nil {
			panic(err)
		}
	}
	db := policy.OpenDB(g)
	paths := synthesis.EnumeratePaths(g, db, policy.Request{Src: src, Dst: dst}, synthesis.EnumerateConfig{})
	for _, p := range paths {
		fmt.Println(p)
	}
	// Output:
	// AD1>AD2>AD4
	// AD1>AD3>AD4
}

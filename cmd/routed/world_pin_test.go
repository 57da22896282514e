package main

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/policy"
)

// TestDefaultWorldPinned holds routed's generated world at its flag defaults
// (seed 42, 2,000 zipf requests at skew 1.4 over two QOS and two UCI
// classes) to a hash of every AD, every link, every AD's policy terms and
// selection criteria, and the workload, and holds the -churn timeline to the
// link it fails and restores. A change to how the world is spelled must not
// change the world.
func TestDefaultWorldPinned(t *testing.T) {
	g, db, workload, ops, err := materialize("", 42, 2000, "zipf", 1.4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Errorf("the generated world has %d scenario ops, want none", len(ops))
	}
	// plainTerm drops Term's String method so every field is printed.
	type plainTerm policy.Term
	h := sha256.New()
	for _, info := range g.ADs() {
		fmt.Fprintf(h, "ad %+v\n", info)
	}
	for _, l := range g.Links() {
		fmt.Fprintf(h, "link %+v\n", l)
	}
	for _, id := range g.IDs() {
		for _, term := range db.Terms(id) {
			fmt.Fprintf(h, "term %+v\n", plainTerm(term))
		}
		fmt.Fprintf(h, "criteria %v %+v\n", id, db.CriteriaFor(id))
	}
	for _, req := range workload {
		fmt.Fprintf(h, "req %v\n", req)
	}
	const want = "831e10fac4403cf7d6460fed9dea03d6fab21fdc73d6f189c3f422cb68d588a4"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("routed's default world hashes to %s, want %s (%d ADs, %d links, %d terms, %d requests)",
			got, want, g.NumADs(), g.NumLinks(), db.NumTerms(), len(workload))
	}

	churn := churnOps(g)
	var got []string
	for _, ev := range churn {
		got = append(got, fmt.Sprintf("%.1f %v", ev.After, ev.Op))
	}
	if want := "[0.4 fail AD4-AD5 0.7 restore AD4-AD5]"; fmt.Sprint(got) != want {
		t.Errorf("-churn timeline = %v, want %s", got, want)
	}
}

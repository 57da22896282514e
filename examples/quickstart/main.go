// Quickstart: build the paper's Figure 1 internet, give every transit AD an
// open policy, run the ORWG architecture (link state + source routing +
// policy terms — the paper's recommended design), and trace a policy route
// from one campus to another.
package main

import (
	"fmt"
	"log"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/protocols/orwg"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	// 1. The internet: Figure 1 — two backbones, three regionals, five
	// campuses, with lateral and bypass links.
	topo := topology.Figure1()
	g := topo.Graph
	fmt.Printf("topology: %d ADs, %d links\n", g.NumADs(), g.NumLinks())

	// 2. Policies: every transit AD advertises one open policy term
	// ("least restrictive policies possible", §2.3).
	db := policy.OpenDB(g)

	// 3. Deploy ORWG and flood LSAs to convergence.
	system := orwg.New(g, db, orwg.Config{})
	conv, ok := system.Converge(60 * sim.Second)
	if !ok {
		log.Fatal("flooding did not converge")
	}
	fmt.Printf("converged at %v after %d messages\n", conv, system.Network().Stats.MessagesSent)

	// 4. Pick two campuses on different backbones and set up a policy
	// route between them.
	var src, dst ad.ID
	for _, info := range g.ADs() {
		if info.Name == "campus-1" {
			src = info.ID
		}
		if info.Name == "campus-4" {
			dst = info.ID
		}
	}
	req := policy.Request{Src: src, Dst: dst}
	res := system.Establish(req)
	if !res.OK {
		log.Fatalf("setup failed: code %d at %v", res.FailCode, res.FailedAt)
	}
	fmt.Printf("policy route: %v (setup RTT %v, %d messages)\n", res.Path, res.RTT, res.Messages)

	// 5. Send data over the established handle: per-packet headers carry
	// just the 8-byte handle, not the full source route.
	delivered, header := system.SendData(src, res.Handle, 256)
	fmt.Printf("data delivered: %v (routing header %d bytes)\n", delivered, header)

	// 6. Sanity-check against the global oracle.
	oracle := core.NewOracle(g, db)
	fmt.Printf("path legal under global policy: %v\n", oracle.Legal(res.Path, req))
}

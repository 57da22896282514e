// Whatif: the network-management workflow of the paper's §6 — "it will be
// imperative for these administrators to have available network management
// tools to assist them in predicting the impact of their policies."
//
// A regional AD considers restricting its transit service to its own
// customers. The example first *predicts* the impact with the policy tool
// (connectivity, transit load, synthesis cost), then *applies* the change
// to a live ORWG deployment and verifies the prediction: exactly the
// predicted pairs lose service or reroute.
package main

import (
	"fmt"
	"os"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/policytool"
	"repro/internal/protocols/orwg"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	topo := topology.Figure1()
	g := topo.Graph
	db := policy.OpenDB(g)

	// The AD under study: regional-2 (it has the lateral link, so it
	// carries through-traffic between the backbones).
	var target ad.ID
	var customers []ad.ID
	for _, info := range g.ADs() {
		if info.Name == "regional-2" {
			target = info.ID
		}
	}
	for child, parent := range topo.Parent {
		if parent == target {
			customers = append(customers, child)
		}
	}

	// Proposed policy: carry only traffic sourced by directly-attached
	// customers (and the AD's own reverse traffic).
	proposed := policy.OpenTerm(target, 0)
	proposed.Sources = policy.SetOf(customers...)

	reqs := core.AllPairsRequests(g, true, 0, 0)

	// 1. Predict.
	fmt.Println("--- prediction (policytool) ---")
	im := policytool.Assess(g, db, target, []policy.Term{proposed}, reqs)
	if err := im.Report(os.Stdout); err != nil {
		panic(err)
	}

	// 2. Apply to a live deployment and verify.
	fmt.Println("\n--- live verification (orwg) ---")
	sys := orwg.New(g, db, orwg.Config{Seed: 1})
	if _, ok := sys.Converge(60 * sim.Second); !ok {
		panic("did not converge")
	}
	if err := sys.UpdatePolicy(target, []policy.Term{proposed}); err != nil {
		panic(err)
	}
	oracle := core.NewOracle(g, sys.PolicyDB())
	lost, rerouted, unchanged := 0, 0, 0
	predictedLost := map[string]bool{}
	for _, c := range im.Lost {
		predictedLost[c.Req.String()] = true
	}
	for _, req := range reqs {
		out := sys.Route(req)
		switch {
		case !out.Delivered:
			lost++
			if !predictedLost[req.String()] && oracle.HasRoute(req) {
				fmt.Printf("UNPREDICTED loss: %v\n", req)
			}
		case out.Path.Contains(target):
			unchanged++
		default:
			rerouted++
		}
	}
	fmt.Printf("after the change: %d pairs lost, %d avoid %v, %d still cross it\n",
		lost, rerouted, target, unchanged)
	fmt.Printf("prediction said:  %d lost, %d rerouted — prediction %s\n",
		len(im.Lost), len(im.Rerouted),
		map[bool]string{true: "CONFIRMED", false: "differs"}[lost == len(im.Lost)])
}

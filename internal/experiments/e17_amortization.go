package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols/orwg"
	"repro/internal/wire"
)

// E17SetupAmortization quantifies §5.4.1's argument for the setup/handle
// design: "PRs may have a long lifetime ... a single policy route can
// support multiple pairs of hosts in the source and destination ADS." The
// setup exchange is a fixed cost; every data packet then saves the
// difference between a source-route header and a handle header. The
// experiment sweeps packets-per-route and reports the effective per-packet
// overhead of the handle plane against always-source-routing, locating the
// break-even point.
func E17SetupAmortization(seed int64) *metrics.Table {
	topo := defaultTopology(seed)
	g := topo.Graph
	db := restrictedPolicy(g, seed+1)
	sys := orwg.New(g, db, orwg.Config{})
	sys.Converge(convergenceLimit)

	// Pick a representative long route: the stub pair with the most hops.
	var best orwg.SetupResult
	var bestReq policy.Request
	for _, req := range core.AllPairsRequests(g, true, 0, 0) {
		res := sys.Establish(req)
		if res.OK && res.Path.Hops() > best.Path.Hops() {
			best = res
			bestReq = req
		}
	}
	if !best.OK {
		panic("experiments: no route established")
	}

	// Byte costs measured on real encodings.
	setupBytes := 0
	{
		var keys []policy.Key
		for i := 1; i < len(best.Path)-1; i++ {
			if term, ok := db.PermitsTransit(best.Path[i], bestReq, best.Path[i-1], best.Path[i+1]); ok {
				keys = append(keys, term.Key())
			}
		}
		setup := &wire.Setup{Handle: best.Handle, Req: bestReq, Route: best.Path, TermKeys: keys}
		reply := &wire.SetupReply{Handle: best.Handle}
		// The setup traverses each hop once; the reply returns.
		hops := best.Path.Hops()
		setupBytes = hops*len(wire.Marshal(setup)) + hops*len(wire.Marshal(reply))
	}
	const payload = 64
	handlePkt := &wire.Data{Mode: wire.ModeHandle, Handle: best.Handle, Payload: make([]byte, payload)}
	srcroutePkt := &wire.Data{Mode: wire.ModeSourceRoute, Req: bestReq, Route: best.Path, Payload: make([]byte, payload)}
	hops := best.Path.Hops()
	handleBytesPerPkt := hops * len(wire.Marshal(handlePkt))
	srcrouteBytesPerPkt := hops * len(wire.Marshal(srcroutePkt))

	t := metrics.NewTable("E17 — setup cost amortization over a policy route's lifetime",
		"packets", "handle-plane-bytes", "srcroute-plane-bytes", "handle/srcroute", "handle-wins")
	for _, n := range []int{1, 2, 5, 10, 50, 200, 1000} {
		handleTotal := setupBytes + n*handleBytesPerPkt
		srcTotal := n * srcrouteBytesPerPkt
		t.AddRow(fmt.Sprintf("%d", n), handleTotal, srcTotal,
			metrics.Ratio(float64(handleTotal), float64(srcTotal)),
			handleTotal < srcTotal)
	}
	t.AddNote("route %v (%d hops), %dB payloads; setup+reply cost %dB once, then %dB vs %dB per packet",
		best.Path, hops, payload, setupBytes, handleBytesPerPkt, srcrouteBytesPerPkt)
	t.AddNote("long-lived policy routes amortize the setup quickly — the §5.4.1 virtual-circuit argument")
	return t
}

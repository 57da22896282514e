package experiments

import (
	"fmt"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pgstate"
	"repro/internal/protocols/orwg"
	"repro/internal/wire"
)

// E5SetupVsHandle measures the ORWG data plane of §5.4.1: the one-time
// setup latency, the per-packet header saved by handles versus full source
// routes, and policy-gateway cache behaviour under bounded capacity. Every
// cache capacity's run is independent and runs on every core.
func E5SetupVsHandle(seed int64) *metrics.Table {
	return e5Rows(seed).run(0)
}

// e5Rows makes one task per cache capacity; the four cost about the same.
// The topology, policy database and requests are shared read-only; each
// task owns its ORWG system.
func e5Rows(seed int64) rows {
	topo := defaultTopology(seed)
	g := topo.Graph
	db := restrictedPolicy(g, seed+1)
	reqs := core.AllPairsRequests(g, true, 0, 0)

	capacities := []int{0, 64, 16, 4}
	cells := make([][]any, len(capacities))
	tasks := make([]func(), len(capacities))
	for i, capacity := range capacities {
		tasks[i] = func() {
			var cfg orwg.Config
			if capacity > 0 {
				cfg.State = pgstate.Config{Kind: pgstate.Capped, Capacity: capacity}
			}
			sys := orwg.New(g, db, cfg)
			sys.Converge(convergenceLimit)

			var rtts []float64
			type flow struct {
				src    ad.ID
				handle uint64
			}
			var flows []flow
			var srcrouteHdr, handleHdr float64
			established := 0
			for _, req := range reqs {
				res := sys.Establish(req)
				if !res.OK {
					continue
				}
				established++
				rtts = append(rtts, float64(res.RTT)/1000.0)
				flows = append(flows, flow{src: req.Src, handle: res.Handle})
				full := &wire.Data{Mode: wire.ModeSourceRoute, Req: req, Route: res.Path, Payload: nil}
				hdl := &wire.Data{Mode: wire.ModeHandle, Handle: res.Handle}
				srcrouteHdr += float64(full.HeaderLen())
				handleHdr += float64(hdl.HeaderLen())
			}
			// Send two rounds of data over every flow (round-robin) to
			// exercise the caches.
			for round := 0; round < 2; round++ {
				for _, f := range flows {
					sys.SendData(f.src, f.handle, 64)
				}
			}
			cs := sys.CacheStats()
			hitRate := metrics.Ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
			s := metrics.Summarize(rtts)
			cells[i] = []any{capLabel(capacity), established,
				s.P50, s.P95,
				handleHdr / float64(max(1, established)),
				srcrouteHdr / float64(max(1, established)),
				metrics.Ratio(srcrouteHdr, handleHdr),
				hitRate, cs.Evictions}
		}
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E5 — ORWG setup vs handle forwarding",
			"cache-cap", "flows", "setup-rtt-p50(ms)", "setup-rtt-p95(ms)",
			"handle-hdr(B)", "srcroute-hdr(B)", "hdr-saving", "cache-hit", "evictions")
		for _, c := range cells {
			t.AddRow(c...)
		}
		t.AddNote("handle packets carry an 8-byte handle; source-route packets carry the full AD list + request")
		t.AddNote("bounded PG caches evict LRU flows, whose packets are then dropped until re-setup (§6 state management)")
		return t
	}}
}

func capLabel(c int) string {
	if c == 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d", c)
}

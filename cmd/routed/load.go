package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/scenario"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

// materialize builds the internet and workload, and compiles the scenario's
// events to control ops (a load run's churn timeline). The world is a
// scenario file's or, with no path, the serving preset generated from the
// seed with a workload drawn at the flag settings; both go through
// Materialize and Ops.
func materialize(path string, seed int64, requests int, model string, zipfS float64, qos, uci int) (
	*ad.Graph, *policy.DB, []policy.Request, []wire.PlanStep, error) {
	topo, pol := scenario.ServingTopology(seed), scenario.RestrictedPolicy(seed)
	sc := &scenario.Scenario{
		Topology: scenario.TopologySpec{Generate: &topo},
		Policy:   scenario.PolicySpec{Generate: &pol},
		Requests: scenario.RequestSpec{Workload: &trafficgen.Config{
			Seed: seed + 2, Requests: requests, StubsOnly: true,
			Model: model, ZipfS: zipfS, QOSClasses: qos, UCIClasses: uci,
		}},
	}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		defer f.Close()
		if sc, err = scenario.Load(f); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	g, db, workload, err := sc.Materialize()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	ops, err := sc.Ops(g, db)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return g, db, workload, ops, nil
}

// scenarioOps spreads a scenario's control ops evenly through a load run.
func scenarioOps(ops []wire.PlanStep) []timedOp {
	out := make([]timedOp, len(ops))
	for i, op := range ops {
		out[i] = timedOp{After: float64(i+1) / float64(len(ops)+1), Op: op}
	}
	return out
}

// timedOp is one control op of a load run's timeline, fired once After
// (0..1) of the workload has been answered.
type timedOp struct {
	After float64
	Op    wire.PlanStep
}

// churnOps is the built-in -churn timeline: the graph's first churn link
// (ad.Graph.ChurnLinks) goes down at 40% of the run and comes back at 70%.
func churnOps(g *ad.Graph) []timedOp {
	links := g.ChurnLinks(1)
	if len(links) == 0 {
		return nil
	}
	l := links[0]
	return []timedOp{
		{0.4, wire.PlanStep{Op: wire.CtlFail, A: l.A, B: l.B}},
		{0.7, wire.PlanStep{Op: wire.CtlRestore, A: l.A, B: l.B}},
	}
}

// requestTimeout bounds each wire round trip: the client-side heartbeat
// that detects a silently dead primary.
const requestTimeout = 2 * time.Second

// networkOf picks the dial network for a -connect address: a path-looking
// address means a unix socket, anything else TCP.
func networkOf(addr string) string {
	if strings.ContainsRune(addr, '/') {
		return "unix"
	}
	return "tcp"
}

// runLoad is load mode: one generator replays the workload and fires the
// timeline's control ops — a scenario's events, the -churn pair — either in
// process against be or, with connect set, over the wire against a running
// daemon, the ops sent from a dedicated control connection. Either way an op
// is one Backend.Control: resolved against the server's world, replicated to
// HA followers, flushed in the data plane. The workload and timeline were
// built locally from the same seed or scenario file the daemon was started
// on, so client and daemon agree on the topology. A comma-separated connect
// names an HA replica set: clients fail over between the addresses and
// follow NotPrimary redirects.
func runLoad(be *daemon.Backend, connect string, workload []policy.Request, timeline []timedOp,
	cfg routeserver.LoadConfig, seed int64, benchJSON string) int {
	srv := be.Server()
	dial := routeserver.InProcess(srv)
	control := func(op wire.PlanStep) error {
		_, err := be.Control(op)
		return err
	}
	if connect != "" {
		addrs := strings.Split(connect, ",")
		network := networkOf(addrs[0])
		dial = func(i int) routeserver.Client {
			return daemon.DialFailover(network, addrs, requestTimeout, seed+int64(i))
		}
		ctl := daemon.DialFailover(network, addrs, requestTimeout, seed)
		defer ctl.Close()
		control = ctl.Control
		srv = nil // the serving counters live in the daemon
	}
	for _, ev := range timeline {
		cfg.Events = append(cfg.Events, routeserver.Event{
			After: ev.After,
			Fire:  func() error { return control(ev.Op) },
		})
	}

	rep := routeserver.Run(dial, workload, cfg)
	printReport(os.Stdout, rep, srv)
	if benchJSON != "" {
		if err := writeJSON(benchJSON, rep, srv); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if rep.Errors > 0 || len(rep.EventErrors) > 0 {
		return 1
	}
	return 0
}

// printReport renders a load run: what the generator observed and, for an
// in-process run (srv non-nil), the server's own cache, churn and synthesis
// counters.
func printReport(w io.Writer, rep routeserver.Report, srv *routeserver.Server) {
	fmt.Fprintf(w, "requests    %d (%d served, %d no-route, %d errors)\n",
		rep.Requests, rep.Served, rep.NoRoute, rep.Errors)
	fmt.Fprintf(w, "elapsed     %v (%.0f qps)\n", rep.Elapsed, rep.QPS)
	fmt.Fprintf(w, "latency     p50 %v  p95 %v  p99 %v\n",
		rep.Latency.P50, rep.Latency.P95, rep.Latency.P99)
	fmt.Fprintf(w, "conns       %d reconnects, %d failed dials, %d redirects\n",
		rep.Reconnects, rep.ReconnectFailures, rep.Redirects)
	fmt.Fprintf(w, "stall       %v max gap between replies\n", rep.MaxStall)
	for _, err := range rep.EventErrors {
		fmt.Fprintf(w, "event       failed: %v\n", err)
	}
	if srv == nil {
		return
	}
	m, st := srv.Snapshot(), srv.StrategyStats()
	fmt.Fprintf(w, "strategy    %s\n", srv.StrategyName())
	fmt.Fprintf(w, "cache       %d hits, %d coalesced, %d misses (%.1f%% served without synthesis)\n",
		m.Hits, m.Coalesced, m.Misses, 100*m.HitRate())
	fmt.Fprintf(w, "churn       %d full invalidations, %d scoped (%d evicted, %d retained), %d evictions\n",
		m.Invalidations, m.ScopedMutations, m.ScopedEvicted, m.ScopedRetained, m.Evictions)
	fmt.Fprintf(w, "synthesis   %d precompute + %d on-demand expansions, %d entries cached by the strategy\n",
		st.PrecomputeExpansions, st.OnDemandExpansions, st.CacheEntries)
}

// writeJSON writes the machine-readable form of printReport's report.
func writeJSON(path string, rep routeserver.Report, srv *routeserver.Server) error {
	fields := map[string]any{
		"requests":           rep.Requests,
		"served":             rep.Served,
		"no_route":           rep.NoRoute,
		"errors":             rep.Errors,
		"event_errors":       len(rep.EventErrors),
		"reconnects":         rep.Reconnects,
		"reconnect_failures": rep.ReconnectFailures,
		"redirects":          rep.Redirects,
		"max_stall_ns":       rep.MaxStall.Nanoseconds(),
		"elapsed_ns":         rep.Elapsed.Nanoseconds(),
		"qps":                rep.QPS,
		"latency_p50":        rep.Latency.P50.Nanoseconds(),
		"latency_p95":        rep.Latency.P95.Nanoseconds(),
		"latency_p99":        rep.Latency.P99.Nanoseconds(),
	}
	if srv != nil {
		m := srv.Snapshot()
		fields["strategy"] = srv.StrategyName()
		fields["hits"] = m.Hits
		fields["coalesced"] = m.Coalesced
		fields["misses"] = m.Misses
		fields["hit_rate"] = m.HitRate()
		fields["invalidations"] = m.Invalidations
		fields["scoped_mutations"] = m.ScopedMutations
		fields["scoped_evicted"] = m.ScopedEvicted
		fields["scoped_retained"] = m.ScopedRetained
		fields["evictions"] = m.Evictions
	}
	out, err := json.MarshalIndent(fields, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// Package repro's benchmark harness: the whole report serially and in
// parallel, the benchmarks that emit BENCH_*.json reports, and
// microbenchmarks for the hot substrates (wire encoding, route synthesis,
// flooding). Each experiment on its own is timed by
// internal/experiments.BenchmarkRows.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ordering"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/orwg"
	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/routeserver/ha"
	"repro/internal/routeserver/plan"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/topology"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

const benchSeed = 42

// sink keeps benchmarked results live against dead-code elimination.
var sink int

// BenchmarkE20RouteServer compares the caching/coalescing route server
// against naive per-request synthesis on a Zipf-skewed workload, then
// emits the measurements as BENCH_routeserver.json (machine-readable;
// consumed by the bench-smoke CI step). Wall-clock QPS is hardware- and
// scheduling-dependent; the synthesis-reduction ratio is deterministic.
func BenchmarkE20RouteServer(b *testing.B) {
	topo, db := benchTopo()
	workload := trafficgen.Generate(topo.Graph, trafficgen.Config{
		Seed: benchSeed, Requests: 2000, StubsOnly: true,
		Model: "zipf", ZipfS: 1.4, QOSClasses: 2, UCIClasses: 2,
	})

	var cachedQPS, naiveQPS float64
	var synthCached, synthNaive uint64

	b.Run("cached", func(b *testing.B) {
		srv := routeserver.New(synthesis.NewOnDemand(topo.Graph, db), routeserver.Config{})
		served := 0
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			sink += len(routeserver.ServePhase(srv, workload, 4))
			served += len(workload)
		}
		if el := time.Since(start).Seconds(); el > 0 {
			cachedQPS = float64(served) / el
		}
		synthCached = srv.Snapshot().Misses
	})

	b.Run("naive", func(b *testing.B) {
		served := 0
		snap := synthesis.Compile(topo.Graph, db)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, req := range workload {
				res := snap.FindRoute(req)
				sink += res.Expanded
				synthNaive++
			}
			served += len(workload)
		}
		if el := time.Since(start).Seconds(); el > 0 {
			naiveQPS = float64(served) / el
		}
	})

	writeRouteServerBench(b, benchReport{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Requests:    len(workload),
		CachedQPS:   cachedQPS,
		NaiveQPS:    naiveQPS,
		SynthCached: synthCached,
		SynthNaive:  synthNaive,
		Reduction:   float64(synthNaive) / float64(synthCached),
	})
}

// BenchmarkE22ScopedInvalidation measures serving under churn with the two
// invalidation modes: the same fail/restore timeline over the first two
// lateral links fires mid-run (by workload fraction), once with every step a
// full invalidation and once scoped to the change the step resolves to. It
// emits BENCH_scopedinvalidation.json. Wall-clock QPS and P95 are hardware-
// dependent; the synthesis counts are approximate here because event firing
// points depend on scheduling (E22 measures them exactly at phase barriers).
func BenchmarkE22ScopedInvalidation(b *testing.B) {
	topo := topology.Generate(topology.Config{
		Seed: benchSeed, Backbones: 2, RegionalsPerBackbone: 3,
		CampusesPerParent: 3, LateralProb: 0.25, BypassProb: 0.1,
		MultihomedProb: 0.15, HybridProb: 0.15,
	})
	// Mostly permissive regime (cf. e22Policy): the cache must hold working
	// routes for retention to have anything to retain.
	db := policy.Generate(topo.Graph, policy.GenConfig{
		Seed: benchSeed, QOSClasses: 2, UCIClasses: 2,
		QOSCoverage: 1.0, UCICoverage: 1.0, HybridSourceFraction: 0.9,
		SourceRestrictionProb: 0.2, SourceFraction: 0.7,
		DestRestrictionProb: 0.1, DestFraction: 0.7, AvoidProb: 0.1,
	})
	workload := trafficgen.Generate(topo.Graph, trafficgen.Config{
		Seed: benchSeed + 2, Requests: 2000, StubsOnly: true,
		Model: "zipf", ZipfS: 1.4, QOSClasses: 2, UCIClasses: 2,
	})

	var laterals []ad.Link
	for _, l := range topo.Graph.Links() {
		if l.Class == ad.Lateral && len(laterals) < 2 {
			laterals = append(laterals, l)
		}
	}
	if len(laterals) < 2 {
		b.Skip("topology has fewer than two lateral links")
	}

	// The timeline restores every failed link, so the world is back in its
	// initial state after each iteration.
	l0, l1 := laterals[0], laterals[1]
	timeline := []wire.PlanStep{
		{Op: wire.CtlFail, A: l0.A, B: l0.B}, {Op: wire.CtlRestore, A: l0.A, B: l0.B},
		{Op: wire.CtlFail, A: l1.A, B: l1.B}, {Op: wire.CtlRestore, A: l1.A, B: l1.B},
	}
	world := synthesis.NewWorld(topo.Graph, db)
	events := func(srv *routeserver.Server, scoped bool) []routeserver.Event {
		evs := make([]routeserver.Event, len(timeline))
		for i, op := range timeline {
			evs[i] = routeserver.Event{After: float64(i+1) / 5, Fire: func() error {
				ch, apply, err := world.Resolve(op)
				if err != nil {
					return err
				}
				if scoped {
					srv.MutateScoped(ch, apply)
				} else {
					srv.Mutate(apply)
				}
				return nil
			}}
		}
		return evs
	}

	report := scopedBenchReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Requests: len(workload)}
	for _, mode := range []string{"full", "scoped"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			srv := routeserver.New(synthesis.NewOnDemand(topo.Graph, db), routeserver.Config{})
			sink += len(routeserver.ServePhase(srv, workload, 4)) // warm
			warm := srv.Snapshot()
			var qps float64
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				rep := routeserver.Run(routeserver.InProcess(srv), workload, routeserver.LoadConfig{
					Clients: 4, Events: events(srv, mode == "scoped"),
				})
				sink += rep.Served
			}
			if el := time.Since(start).Seconds(); el > 0 {
				qps = float64(b.N*len(workload)) / el
			}
			fin := srv.Snapshot()
			synthPerRun := float64(fin.Misses-warm.Misses) / float64(b.N)
			if mode == "scoped" {
				report.ScopedQPS, report.ScopedP95NS = qps, fin.Latency.P95.Nanoseconds()
				report.SynthScopedPerRun = synthPerRun
			} else {
				report.FullQPS, report.FullP95NS = qps, fin.Latency.P95.Nanoseconds()
				report.SynthFullPerRun = synthPerRun
			}
		})
	}
	if report.SynthFullPerRun > 0 {
		report.SynthAvoided = 1 - report.SynthScopedPerRun/report.SynthFullPerRun
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatalf("marshal bench report: %v", err)
	}
	if err := os.WriteFile("BENCH_scopedinvalidation.json", append(out, '\n'), 0o644); err != nil {
		b.Fatalf("write BENCH_scopedinvalidation.json: %v", err)
	}
}

// BenchmarkHAFailover measures a 3-replica HA group end to end: TCP
// daemons fronted by failover clients, the primary's warm cache streaming
// to the followers, then a SIGKILL-model primary death mid-run. Each
// iteration builds a fresh group (the kill is destructive), warms the
// primary, barriers the followers to the backlog tail, and drives the
// workload through routeserver.Run over failover clients while a side goroutine
// kills the primary and clocks the promotion. It emits BENCH_ha.json:
// throughput and tail latency around the failover, the redirect/reconnect
// work the clients did, the availability gap (longest reply stall,
// cluster-wide), and the promotion latency. Wall-clock numbers are
// hardware-dependent; served+no-route must equal requests and errors must
// be zero — no request is lost to the failover.
func BenchmarkHAFailover(b *testing.B) {
	topo := topology.Generate(topology.Config{
		Seed: benchSeed, Backbones: 2, RegionalsPerBackbone: 3,
		CampusesPerParent: 3, LateralProb: 0.25, BypassProb: 0.1,
		MultihomedProb: 0.15, HybridProb: 0.15,
	})
	baseDB := policy.Generate(topo.Graph, policy.GenConfig{
		Seed: benchSeed, QOSClasses: 2, UCIClasses: 2,
		QOSCoverage: 1.0, UCICoverage: 1.0, HybridSourceFraction: 0.9,
		SourceRestrictionProb: 0.2, SourceFraction: 0.7,
		DestRestrictionProb: 0.1, DestFraction: 0.7, AvoidProb: 0.1,
	})
	workload := trafficgen.Generate(topo.Graph, trafficgen.Config{
		Seed: benchSeed + 2, Requests: 30000, StubsOnly: true,
		Model: "zipf", ZipfS: 1.4, QOSClasses: 2, UCIClasses: 2,
	})

	const clients = 200
	const replicas = 3
	var last routeserver.Report
	var failover time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		peers := make([]ha.Peer, replicas)
		halns := make([]net.Listener, replicas)
		addrs := make([]string, replicas)
		nodes := make([]*ha.Node, replicas)
		daemons := make([]*daemon.Daemon, replicas)
		srvs := make([]*routeserver.Server, replicas)
		dlns := make([]net.Listener, replicas)
		for j := 0; j < replicas; j++ {
			haln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			dln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			halns[j], dlns[j] = haln, dln
			addrs[j] = dln.Addr().String()
			peers[j] = ha.Peer{ID: uint32(j + 1), HAAddr: haln.Addr().String(), ClientAddr: addrs[j]}
		}
		for j := 0; j < replicas; j++ {
			g := topo.Graph.Clone()
			dbc := baseDB.Clone()
			srv := routeserver.New(synthesis.NewOnDemand(g, dbc), routeserver.Config{})
			dp, err := routeserver.NewDataPlane(pgstate.Config{Kind: pgstate.Hard})
			if err != nil {
				b.Fatal(err)
			}
			be := daemon.NewBackend(srv, dp, g, dbc)
			d := daemon.New(be, daemon.Config{MaxConns: clients*2 + 64})
			go d.Serve(dlns[j])
			node, err := ha.NewNode(ha.Config{
				ID: uint32(j + 1), Peers: peers,
				HeartbeatEvery:   10 * time.Millisecond,
				HeartbeatTimeout: 60 * time.Millisecond,
				Listener:         halns[j],
			}, be, d)
			if err != nil {
				b.Fatal(err)
			}
			srvs[j], daemons[j], nodes[j] = srv, d, node
		}
		for _, n := range nodes {
			n.Start()
		}
		// Warm the primary and barrier the followers to its backlog tail, so
		// the failover hands over an actually warm cache.
		routeserver.ServePhase(srvs[0], workload[:2000], 8)
		deadline := time.Now().Add(30 * time.Second)
		for {
			latest := nodes[0].BacklogLatest()
			if latest > 0 && nodes[1].AppliedSeq() == latest && nodes[2].AppliedSeq() == latest {
				break
			}
			if time.Now().After(deadline) {
				b.Fatal("followers never synced to the primary's backlog tail")
			}
			time.Sleep(time.Millisecond)
		}

		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(100 * time.Millisecond)
			start := time.Now()
			nodes[0].Kill()
			for !nodes[1].IsPrimary() && !nodes[2].IsPrimary() {
				time.Sleep(time.Millisecond)
			}
			failover = time.Since(start)
		}()
		b.StartTimer()
		last = routeserver.Run(func(c int) routeserver.Client {
			return daemon.DialFailover("tcp", addrs, 2*time.Second, benchSeed+int64(c))
		}, workload, routeserver.LoadConfig{Clients: clients})
		b.StopTimer()
		<-done
		for j := 1; j < replicas; j++ {
			nodes[j].Stop()
			daemons[j].Drain()
		}
		if last.Errors > 0 {
			b.Fatalf("load run hit %d errors across the failover", last.Errors)
		}
		if last.Served+last.NoRoute != last.Requests {
			b.Fatalf("accounting: %d served + %d no-route != %d requests",
				last.Served, last.NoRoute, last.Requests)
		}
		b.StartTimer()
	}
	b.StopTimer()

	report := haBenchReport{
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Clients:           clients,
		Replicas:          replicas,
		Requests:          last.Requests,
		Served:            last.Served,
		NoRoute:           last.NoRoute,
		Reconnects:        last.Reconnects,
		ReconnectFailures: last.ReconnectFailures,
		Redirects:         last.Redirects,
		QPS:               last.QPS,
		P50NS:             last.Latency.P50.Nanoseconds(),
		P99NS:             last.Latency.P99.Nanoseconds(),
		AvailabilityGapMS: float64(last.MaxStall.Nanoseconds()) / 1e6,
		FailoverLatencyMS: float64(failover.Nanoseconds()) / 1e6,
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatalf("marshal bench report: %v", err)
	}
	if err := os.WriteFile("BENCH_ha.json", append(out, '\n'), 0o644); err != nil {
		b.Fatalf("write BENCH_ha.json: %v", err)
	}
}

// BenchmarkPGStateMillion holds 1M+ soft-state handles in one sharded
// table and measures the three costs the rewrite targets: install
// throughput (arena + wheel + link index, no steady-state allocation),
// expiry throughput with the timer wheel (cost ∝ due handles — the
// no-due sweep at full population visits a bounded slot walk, not a
// million entries), and resident bytes per handle. It emits
// BENCH_pgstate.json (consumed by the bench-smoke CI step). Wall-clock
// rates are hardware-dependent; the visit counts and the residency
// assertions are exact.
func BenchmarkPGStateMillion(b *testing.B) {
	const (
		handles = 1 << 20 // 1,048,576
		cohorts = 100     // staggered TTLs: each sweep expires ~1% of the table
		shards  = 64
		lookups = 200_000
	)
	// A small route pool over 64 ADs: entries share routes (as real flows
	// share paths) while the link index still fans out.
	routes := make([]ad.Path, 256)
	for i := range routes {
		routes[i] = ad.Path{adID(i % 32), adID(32 + i%8)}
	}
	req := policy.Request{Src: 1, Dst: 33}

	var report pgstateBenchReport
	for iter := 0; iter < b.N; iter++ {
		tab := pgstate.NewTable(pgstate.Config{Kind: pgstate.Soft, Shards: shards})

		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)

		start := time.Now()
		for h := uint64(1); h <= handles; h++ {
			ttl := sim.Time(1+h%cohorts) * sim.Second
			tab.Install(0, h, routes[h%uint64(len(routes))], 0, req, ttl)
		}
		installSecs := time.Since(start).Seconds()

		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)

		if tab.Len() != handles {
			b.Fatalf("table holds %d of %d handles", tab.Len(), handles)
		}

		// Lookup throughput at full population.
		start = time.Now()
		hits := 0
		for i := 0; i < lookups; i++ {
			if _, ok := tab.Lookup(1, uint64(i)%handles+1); ok {
				hits++
			}
		}
		lookupSecs := time.Since(start).Seconds()
		if hits != lookups {
			b.Fatalf("lookup hit %d of %d at full population", hits, lookups)
		}

		// A sweep with nothing due at full population: the wheel walks its
		// bounded slot range (plus cascade traffic), never the million
		// entries the reference would scan.
		preCost := tab.SweepCost()
		start = time.Now()
		if due := tab.ExpireDue(1); len(due) != 0 {
			b.Fatalf("no-due sweep expired %d handles", len(due))
		}
		noDueSecs := time.Since(start).Seconds()
		noDueCost := tab.SweepCost()

		// Cohort sweeps: each advances one second and expires ~1% of the
		// original table.
		expired := 0
		start = time.Now()
		for c := 1; c <= cohorts; c++ {
			expired += len(tab.ExpireDue(sim.Time(c)*sim.Second + 1))
		}
		sweepSecs := time.Since(start).Seconds()
		dueCost := tab.SweepCost()
		if expired != handles || tab.Len() != 0 {
			b.Fatalf("sweeps expired %d of %d, %d left", expired, handles, tab.Len())
		}

		report = pgstateBenchReport{
			GOMAXPROCS:        runtime.GOMAXPROCS(0),
			Handles:           handles,
			Shards:            shards,
			InstallsPerSec:    float64(handles) / installSecs,
			LookupsPerSec:     float64(lookups) / lookupSecs,
			ResidentBytes:     int64(after.HeapAlloc) - int64(before.HeapAlloc),
			BytesPerHandle:    (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / handles,
			Sweeps:            cohorts,
			Expired:           expired,
			ExpiredPerSec:     float64(expired) / sweepSecs,
			SweepEntryVisits:  dueCost.Entries - noDueCost.Entries,
			NoDueEntryVisits:  noDueCost.Entries - preCost.Entries,
			NoDueSlotWalks:    noDueCost.Slots - preCost.Slots,
			NoDueSweepMS:      noDueSecs * 1e3,
			DueSweepAvgVisits: float64(dueCost.Entries-noDueCost.Entries) / cohorts,
		}
		sink += expired
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatalf("marshal bench report: %v", err)
	}
	if err := os.WriteFile("BENCH_pgstate.json", append(out, '\n'), 0o644); err != nil {
		b.Fatalf("write BENCH_pgstate.json: %v", err)
	}
}

// adID maps a small int to an ad.ID for benchmark route construction.
func adID(i int) ad.ID { return ad.ID(i + 1) }

type pgstateBenchReport struct {
	GOMAXPROCS        int     `json:"gomaxprocs"`
	Handles           int     `json:"handles"`
	Shards            int     `json:"shards"`
	InstallsPerSec    float64 `json:"installs_per_sec"`
	LookupsPerSec     float64 `json:"lookups_per_sec"`
	ResidentBytes     int64   `json:"resident_bytes"`
	BytesPerHandle    float64 `json:"bytes_per_handle"`
	Sweeps            int     `json:"sweeps"`
	Expired           int     `json:"expired"`
	ExpiredPerSec     float64 `json:"expired_per_sec"`
	SweepEntryVisits  uint64  `json:"sweep_entry_visits"`
	DueSweepAvgVisits float64 `json:"due_sweep_avg_visits"`
	NoDueEntryVisits  uint64  `json:"no_due_entry_visits"`
	NoDueSlotWalks    uint64  `json:"no_due_slot_walks"`
	NoDueSweepMS      float64 `json:"no_due_sweep_ms"`
}

type haBenchReport struct {
	GOMAXPROCS        int     `json:"gomaxprocs"`
	Clients           int     `json:"clients"`
	Replicas          int     `json:"replicas"`
	Requests          int     `json:"requests"`
	Served            int     `json:"served"`
	NoRoute           int     `json:"no_route"`
	Reconnects        int     `json:"reconnects"`
	ReconnectFailures int     `json:"reconnect_failures"`
	Redirects         int     `json:"redirects"`
	QPS               float64 `json:"qps"`
	P50NS             int64   `json:"p50_ns"`
	P99NS             int64   `json:"p99_ns"`
	AvailabilityGapMS float64 `json:"availability_gap_ms"`
	FailoverLatencyMS float64 `json:"failover_latency_ms"`
}

type scopedBenchReport struct {
	GOMAXPROCS        int     `json:"gomaxprocs"`
	Requests          int     `json:"requests"`
	FullQPS           float64 `json:"full_qps"`
	ScopedQPS         float64 `json:"scoped_qps"`
	FullP95NS         int64   `json:"full_p95_ns"`
	ScopedP95NS       int64   `json:"scoped_p95_ns"`
	SynthFullPerRun   float64 `json:"synth_full_per_run"`
	SynthScopedPerRun float64 `json:"synth_scoped_per_run"`
	SynthAvoided      float64 `json:"synth_avoided"`
}

type benchReport struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Requests    int     `json:"requests"`
	CachedQPS   float64 `json:"cached_qps"`
	NaiveQPS    float64 `json:"naive_qps"`
	Speedup     float64 `json:"cached_speedup"`
	SynthCached uint64  `json:"synth_cached"`
	SynthNaive  uint64  `json:"synth_naive"`
	Reduction   float64 `json:"synth_reduction"`
}

func writeRouteServerBench(b *testing.B, r benchReport) {
	// Speedup is naive time per request over cached time per request.
	if r.NaiveQPS > 0 {
		r.Speedup = r.CachedQPS / r.NaiveQPS
	}
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		b.Fatalf("marshal bench report: %v", err)
	}
	if err := os.WriteFile("BENCH_routeserver.json", append(out, '\n'), 0o644); err != nil {
		b.Fatalf("write BENCH_routeserver.json: %v", err)
	}
}

// Full-suite benchmarks: the serial baseline and the parallel runner over
// the identical workload. Compare wall-clock ns/op to measure the fan-out
// speedup (the two produce byte-identical tables).

func BenchmarkAllSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink += len(experiments.RunAll(benchSeed, 1))
	}
}

func BenchmarkAllParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		sink += len(experiments.RunAll(benchSeed, workers))
	}
}

// Substrate microbenchmarks.

func benchTopo() (*topology.Topology, *policy.DB) {
	topo := topology.Generate(topology.Config{
		Seed: benchSeed, Backbones: 2, RegionalsPerBackbone: 3,
		CampusesPerParent: 3, LateralProb: 0.25, BypassProb: 0.1,
	})
	db := policy.Generate(topo.Graph, policy.GenConfig{
		Seed: benchSeed + 1, SourceRestrictionProb: 0.5, SourceFraction: 0.5,
	})
	return topo, db
}

func BenchmarkWireLSAMarshal(b *testing.B) {
	lsa := &wire.LSA{
		Origin: 7, Seq: 3,
		Links: []wire.LSALink{{Neighbor: 1, Cost: 2, Up: true}, {Neighbor: 5, Cost: 1, Up: true}},
		Terms: []policy.Term{policy.OpenTerm(7, 1), policy.OpenTerm(7, 2)},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += len(wire.Marshal(lsa))
	}
}

func BenchmarkWireLSAUnmarshal(b *testing.B) {
	lsa := &wire.LSA{
		Origin: 7, Seq: 3,
		Links: []wire.LSALink{{Neighbor: 1, Cost: 2, Up: true}},
		Terms: []policy.Term{policy.OpenTerm(7, 1)},
	}
	buf := wire.Marshal(lsa)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := wire.Unmarshal(buf)
		if err != nil {
			b.Fatal(err)
		}
		sink += int(m.Type())
	}
}

func BenchmarkSynthesisFindRoute(b *testing.B) {
	topo, db := benchTopo()
	reqs := core.AllPairsRequests(topo.Graph, true, 0, 0)
	snap := synthesis.Compile(topo.Graph, db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reqs[i%len(reqs)]
		res := snap.FindRoute(req)
		sink += res.Expanded
	}
}

func BenchmarkSynthesisEnumerate(b *testing.B) {
	topo, db := benchTopo()
	reqs := core.AllPairsRequests(topo.Graph, true, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reqs[i%len(reqs)]
		sink += len(synthesis.EnumeratePaths(topo.Graph, db, req, synthesis.EnumerateConfig{MaxPaths: 16}))
	}
}

func BenchmarkORWGConvergence(b *testing.B) {
	topo, db := benchTopo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := orwg.New(topo.Graph.Clone(), db, orwg.Config{Seed: benchSeed})
		conv, _ := sys.Converge(600 * sim.Second)
		sink += int(conv)
	}
}

func BenchmarkORWGEstablish(b *testing.B) {
	topo, db := benchTopo()
	sys := orwg.New(topo.Graph, db, orwg.Config{Seed: benchSeed})
	sys.Converge(600 * sim.Second)
	reqs := core.AllPairsRequests(topo.Graph, true, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sys.Establish(reqs[i%len(reqs)])
		sink += int(res.Messages)
	}
}

func BenchmarkOrderingFromLevels(b *testing.B) {
	topo, _ := benchTopo()
	g := topo.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := ordering.FromLevels(g)
		sink += o.Len()
	}
}

func BenchmarkOrderingNegotiate(b *testing.B) {
	cons := make([]ordering.Constraint, 0, 120)
	for i := 0; i < 40; i++ {
		a := ad.ID(1 + (i*7)%60)
		c := ad.ID(1 + (i*13)%60)
		if a != c {
			cons = append(cons, ordering.Constraint{Above: a, Below: c})
			cons = append(cons, ordering.Constraint{Above: c, Below: a})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept, _ := ordering.Negotiate(cons)
		sink += len(kept)
	}
}

// Paper-scale benchmarks: a ~350-AD internet (4 backbones, 16 regionals, 32
// metros, ~300 campuses). The paper targets 10^5 ADs conceptually; these
// benches demonstrate the simulator's headroom and the protocols' scaling
// shape at laptop scale.

func largeTopo() (*topology.Topology, *policy.DB) {
	topo := topology.Generate(topology.Config{
		Seed: benchSeed, Backbones: 4, RegionalsPerBackbone: 4,
		MetrosPerRegional: 2, CampusesPerParent: 9,
		LateralProb: 0.05, BypassProb: 0.02, BackboneChords: 2,
	})
	db := policy.Generate(topo.Graph, policy.GenConfig{
		Seed: benchSeed + 1, SourceRestrictionProb: 0.3, SourceFraction: 0.5,
	})
	return topo, db
}

// Hot-path microbenchmarks: neighbor iteration and flooding dominate every
// protocol's convergence phase. All three should report ~0 allocs/op now
// that the graph caches its sorted adjacency and the network recycles
// payload buffers.

func BenchmarkGraphNeighbors(b *testing.B) {
	topo, _ := largeTopo()
	g := topo.Graph
	ids := g.IDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += len(g.Neighbors(ids[i%len(ids)]))
	}
}

func BenchmarkNetworkUpNeighbors(b *testing.B) {
	topo, _ := largeTopo()
	nw := sim.NewNetwork(topo.Graph, benchSeed)
	ids := topo.Graph.IDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += len(nw.UpNeighbors(ids[i%len(ids)]))
	}
}

func BenchmarkNetworkFlood(b *testing.B) {
	topo, _ := largeTopo()
	nw := sim.NewNetwork(topo.Graph, benchSeed)
	// Flood from the highest-degree AD; no nodes are registered, so the
	// benchmark isolates the Send/delivery machinery itself.
	hub := topo.Graph.IDs()[0]
	for _, id := range topo.Graph.IDs() {
		if topo.Graph.Degree(id) > topo.Graph.Degree(hub) {
			hub = id
		}
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += nw.Flood("lsa", hub, payload)
		nw.Engine.Run() // drain deliveries so buffers recycle
	}
}

func BenchmarkLargeFloodingConvergence(b *testing.B) {
	topo, db := largeTopo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := orwg.New(topo.Graph.Clone(), db, orwg.Config{Seed: benchSeed})
		conv, ok := sys.Converge(600 * sim.Second)
		if !ok {
			b.Fatal("did not converge")
		}
		sink += int(conv)
	}
}

func BenchmarkLargeECMAConvergence(b *testing.B) {
	topo, db := largeTopo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := ecma.New(topo.Graph.Clone(), db, ecma.Config{Seed: benchSeed})
		conv, ok := sys.Converge(600 * sim.Second)
		if !ok {
			b.Fatal("did not converge")
		}
		sink += int(conv)
	}
}

func BenchmarkLargeSynthesis(b *testing.B) {
	topo, db := largeTopo()
	reqs := core.AllPairsRequests(topo.Graph, true, 0, 0)
	snap := synthesis.Compile(topo.Graph, db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := snap.FindRoute(reqs[i%len(reqs)])
		sink += res.Expanded
	}
}

// planBenchReport captures the what-if engine's scaling claim: plan cost is
// proportional to the blast radius (the entries the change's footprint
// index fans out to, each shadow-re-synthesized twice), not to the cache
// size the plan snapshots against.
type planBenchReport struct {
	GOMAXPROCS int             `json:"gomaxprocs"`
	Cases      []planBenchCase `json:"cases"`
	// CacheScaling is the mean latency ratio of the 32k-entry cache over
	// the 8k one at equal radius (~1.0: cache size is not the cost driver).
	// RadiusScaling is the mean ratio of radius 1024 over radius 64 at
	// equal cache size (>> 1: the radius is).
	CacheScaling  float64 `json:"cache_scaling"`
	RadiusScaling float64 `json:"radius_scaling"`
}

type planBenchCase struct {
	CacheSize int     `json:"cache_size"`
	Radius    int     `json:"radius"`
	NSPerOp   float64 `json:"ns_per_op"`
}

// BenchmarkPlan measures plan.Compute against a warm cache whose size and
// affected population are controlled independently: every installed entry
// carries a real footprint, but only `radius` of them cross the hub link
// the plan proposes to fail. Each iteration runs the full engine — snapshot
// under the strategy lock, victim resolution through the reverse indexes,
// and the two-clone shadow re-synthesis of the affected population. It
// emits BENCH_plan.json with the two scaling ratios.
func BenchmarkPlan(b *testing.B) {
	report := planBenchReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	ns := map[[2]int]float64{}

	for _, cacheSize := range []int{8192, 32768} {
		for _, radius := range []int{64, 1024} {
			cacheSize, radius := cacheSize, radius
			b.Run(fmt.Sprintf("cache=%d/radius=%d", cacheSize, radius), func(b *testing.B) {
				g, db, srv := planBenchWorld(b, cacheSize, radius)
				hubA, hubB := ad.ID(1), ad.ID(2)
				steps := []wire.PlanStep{{Op: wire.CtlFail, A: hubA, B: hubB}}
				world := synthesis.NewWorld(g, db)
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					rep, err := plan.Compute(srv, nil, world, steps, plan.Config{Budget: -1})
					if err != nil {
						b.Fatal(err)
					}
					if len(rep.EvictedKeys) != radius {
						b.Fatalf("blast radius %d, want %d", len(rep.EvictedKeys), radius)
					}
					sink += rep.Retained
				}
				// Benchmark calibration re-runs this body with growing
				// b.N; keep the final (longest) measurement.
				ns[[2]int{cacheSize, radius}] = float64(time.Since(start).Nanoseconds()) / float64(b.N)
			})
		}
	}

	for _, cacheSize := range []int{8192, 32768} {
		for _, radius := range []int{64, 1024} {
			report.Cases = append(report.Cases, planBenchCase{
				CacheSize: cacheSize, Radius: radius, NSPerOp: ns[[2]int{cacheSize, radius}],
			})
		}
	}
	if a, c := ns[[2]int{8192, 64}], ns[[2]int{32768, 64}]; a > 0 && c > 0 {
		b1, d := ns[[2]int{8192, 1024}], ns[[2]int{32768, 1024}]
		report.CacheScaling = (c/a + d/b1) / 2
		report.RadiusScaling = (b1/a + d/c) / 2
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatalf("marshal bench report: %v", err)
	}
	if err := os.WriteFile("BENCH_plan.json", append(out, '\n'), 0o644); err != nil {
		b.Fatalf("write BENCH_plan.json: %v", err)
	}
}

// planBenchWorld builds the controlled serving state: two transit hubs
// (IDs 1 and 2) joined by the link the plan fails, stub fans on each whose
// routes cross it (the affected population), and a third hub (ID 3) whose
// local pairs pad the cache to `total` entries without touching the hub
// link. Entries are installed directly with their real footprints, so the
// reverse indexes see exactly what live synthesis would record.
func planBenchWorld(b *testing.B, total, affected int) (*ad.Graph, *policy.DB, *routeserver.Server) {
	b.Helper()
	g := ad.NewGraph()
	hubA := g.AddAD("hubA", ad.Transit, ad.Backbone)
	hubB := g.AddAD("hubB", ad.Transit, ad.Backbone)
	hubC := g.AddAD("hubC", ad.Transit, ad.Backbone)
	mustLink := func(a, bid ad.ID) {
		if err := g.AddLink(ad.Link{A: a, B: bid, Cost: 1}); err != nil {
			b.Fatal(err)
		}
	}
	mustLink(hubA, hubB)
	const fan = 8
	var left, right, filler []ad.ID
	for i := 0; i < fan; i++ {
		l := g.AddAD(fmt.Sprintf("l%d", i), ad.Stub, ad.Campus)
		r := g.AddAD(fmt.Sprintf("r%d", i), ad.Stub, ad.Campus)
		mustLink(l, hubA)
		mustLink(r, hubB)
		left, right = append(left, l), append(right, r)
	}
	for i := 0; i < 24; i++ {
		f := g.AddAD(fmt.Sprintf("f%d", i), ad.Stub, ad.Campus)
		mustLink(f, hubC)
		filler = append(filler, f)
	}
	db := policy.OpenDB(g)
	srv := routeserver.New(synthesis.NewOnDemand(g, db), routeserver.Config{})
	snap := synthesis.Compile(g, db)

	install := func(req policy.Request, path ad.Path) {
		srv.InstallEntry(req,
			routeserver.Result{Path: path, Found: true},
			snap.Footprint(req, path))
	}
	// Affected entries: distinct (src, dst, hour) keys routed across the
	// hub link.
	for i := 0; i < affected; i++ {
		src, dst := left[i%fan], right[(i/fan)%fan]
		req := policy.Request{Src: src, Dst: dst, Hour: uint8((i / (fan * fan)) % 24)}
		install(req, ad.Path{src, hubA, hubB, dst})
	}
	// Filler entries: hubC-local pairs whose footprints never mention the
	// hub link, padding the cache to the target size.
	n := 0
	for h := 0; n < total-affected && h < 24; h++ {
		for qos := 0; n < total-affected && qos < 4; qos++ {
			for i := 0; n < total-affected && i < len(filler); i++ {
				for j := 0; n < total-affected && j < len(filler); j++ {
					if i == j {
						continue
					}
					src, dst := filler[i], filler[j]
					req := policy.Request{Src: src, Dst: dst, QOS: policy.QOS(qos), Hour: uint8(h)}
					install(req, ad.Path{src, hubC, dst})
					n++
				}
			}
		}
	}
	if got := srv.CacheLen(); got != total {
		b.Fatalf("cache holds %d entries, want %d", got, total)
	}
	return g, db, srv
}

// slowSynth wraps a strategy with a calibrated per-search delay, standing
// in for an expensive policy search so BenchmarkParallelSynth measures the
// serving layer's lock structure rather than Dijkstra's constant factor:
// sleeps overlap on any core count, so miss QPS scales with the worker
// pool exactly when misses run concurrently.
type slowSynth struct {
	synthesis.Strategy
	delay time.Duration
}

func (s slowSynth) Route(req policy.Request) (ad.Path, bool) {
	time.Sleep(s.delay)
	return s.Strategy.Route(req)
}

type parallelSynthPoint struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	MissQPS    float64 `json:"miss_qps"`
}

type parallelSynthReport struct {
	CalibratedDelay string               `json:"calibrated_delay"`
	DistinctKeys    int                  `json:"distinct_keys"`
	Points          []parallelSynthPoint `json:"points"`
	Scaling4Over1   float64              `json:"scaling_4_over_1"`
}

// BenchmarkParallelSynth pins the tentpole claim of the parallel miss
// path: distinct-key miss throughput against a calibrated slow strategy at
// GOMAXPROCS 1, 2, and 4 (the default worker pool sizes with it). The
// report lands in BENCH_parallelsynth.json for the CI artifact glob.
func BenchmarkParallelSynth(b *testing.B) {
	topo, db := benchTopo()
	const delay = 500 * time.Microsecond
	seedReq := trafficgen.Generate(topo.Graph, trafficgen.Config{
		Seed: benchSeed, Requests: 1, StubsOnly: true, Model: "zipf", ZipfS: 1.4,
	})[0]
	const keys = 64
	reqs := make([]policy.Request, keys)
	for i := range reqs {
		r := seedReq
		r.Hour = uint8(i % 24)
		r.QOS = policy.QOS(i / 24)
		reqs[i] = r
	}

	missQPS := func(procs int) float64 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		srv := routeserver.New(slowSynth{synthesis.NewOnDemand(topo.Graph, db), delay},
			routeserver.Config{})
		start := time.Now()
		sink += len(routeserver.ServePhase(srv, reqs, keys))
		el := time.Since(start).Seconds()
		if el <= 0 {
			return 0
		}
		return float64(srv.Snapshot().Misses) / el
	}

	rep := parallelSynthReport{CalibratedDelay: delay.String(), DistinctKeys: keys}
	for i := 0; i < b.N; i++ {
		rep.Points = rep.Points[:0]
		for _, procs := range []int{1, 2, 4} {
			rep.Points = append(rep.Points, parallelSynthPoint{
				GOMAXPROCS: procs,
				MissQPS:    missQPS(procs),
			})
		}
	}
	if rep.Points[0].MissQPS > 0 {
		rep.Scaling4Over1 = rep.Points[2].MissQPS / rep.Points[0].MissQPS
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		b.Fatalf("marshal bench report: %v", err)
	}
	if err := os.WriteFile("BENCH_parallelsynth.json", append(out, '\n'), 0o644); err != nil {
		b.Fatalf("write BENCH_parallelsynth.json: %v", err)
	}
}

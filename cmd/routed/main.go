// Command routed fronts the route-server serving layer (§5.4): a concurrent
// query engine — sharded route cache, request coalescing, generation-based
// invalidation — wrapped around a route-synthesis strategy.
//
// Three modes:
//
//   - Line mode (default): reads queries from stdin, one per line
//     ("SRC DST [QOS UCI HOUR]"), answers each, and accepts the commands
//     "fail A B", "restore A B", "policy AD COST", "invalidate", "stats",
//     and "quit", plus the data-plane commands "install SRC DST [QOS UCI
//     HOUR]", "send HANDLE", "refresh", "tick SECONDS", "repair", and
//     "state". fail/restore/policy invalidate the route cache scoped to
//     the change — entries provably unaffected keep serving (still legal,
//     possibly no longer optimal after a restore or policy broadening);
//     "invalidate" forces the full generation bump that restores
//     optimality. Served routes are installed as per-PG handle state whose
//     lifecycle (-state hard|soft|capped, -state-ttl, -state-cap)
//     follows §6. "plan STEP[; STEP ...]" (steps "fail A B", "restore A
//     B", "policy AD COST") predicts a change batch's blast radius —
//     cache evictions, flow teardowns, pairs losing all routes — without
//     mutating anything, and "commit ID" applies a predicted plan unless
//     the server's mutation epoch moved since (staleness guard).
//
//   - Daemon mode (-listen addr and/or -unix path): serves the same
//     commands as a network daemon speaking the framed binary protocol of
//     internal/wire over TCP or a unix socket — per-connection sessions,
//     bounded write queues with slow-client eviction (-write-queue,
//     -write-timeout), and a connection limit (-max-conns). SIGINT,
//     SIGTERM, or a Drain protocol message triggers a graceful drain:
//     stop accepting, finish in-flight requests, flush replies, close.
//     With -replica-id and -peers (entries "ID@haAddr@clientAddr") the
//     daemon joins an HA replica group: the primary (-replica-of, default
//     lowest ID) streams its warm cache and control mutations to the
//     followers, followers redirect clients to the primary and promote
//     the lowest live ID when it goes silent.
//
//   - Load mode (-load): replays a synthetic workload (uniform / Zipf /
//     gravity) from -clients concurrent goroutines, optionally injecting
//     churn mid-run (-churn, or a -scenario file's event timeline), then
//     prints a serving report. -bench-json writes it machine-readably.
//     With -connect addr the workload is instead replayed over the wire
//     against a running daemon, one connection per client, with optional
//     connection churn (-reconnect-every); a comma-separated -connect
//     list makes every client a failover client over the replica group
//     (NotPrimary redirects followed, dead replicas rotated past).
//
// The internet is either generated (-seed and the topology defaults shared
// with the experiment harness) or taken from a -scenario file, in which case
// the scenario's workload and events are used too.
//
// Usage:
//
//	routed [-strategy on-demand|precomputed|hybrid|pruned] [-load] \
//	       [-scenario file.json] [-seed N] [-requests N] [-model zipf] \
//	       [-clients N] [-churn] [-cache N] [-shards N] [-workers N] \
//	       [-qos N] [-uci N] [-bench-json file] \
//	       [-state hard|soft|capped] [-state-ttl dur] [-state-cap N] \
//	       [-cpuprofile file] [-memprofile file] \
//	       [-blockprofile file] [-mutexprofile file]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/ad"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/routeserver/ha"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/topology"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		scenarioPath   = flag.String("scenario", "", "scenario file supplying topology, policy, workload, and churn events")
		seed           = flag.Int64("seed", 42, "seed for the generated internet and workload")
		strategy       = flag.String("strategy", "on-demand", "synthesis strategy: on-demand, precomputed, hybrid, pruned")
		cacheCap       = flag.Int("cache", 0, "server route-cache capacity in entries (0 = default, <0 = unbounded)")
		shards         = flag.Int("shards", 0, "cache shard count, rounded up to a power of two (0 = default)")
		workers        = flag.Int("workers", 0, "max concurrent synthesis computations (0 = GOMAXPROCS)")
		load           = flag.Bool("load", false, "run the load generator instead of reading stdin")
		clients        = flag.Int("clients", 4, "concurrent client goroutines in load mode")
		requests       = flag.Int("requests", 2000, "workload length in load mode (ignored with -scenario)")
		model          = flag.String("model", "zipf", "workload model in load mode: uniform, zipf, gravity")
		zipfS          = flag.Float64("zipf", 1.4, "Zipf skew for -model zipf")
		qosClasses     = flag.Int("qos", 2, "QOS classes in the workload and precomputation")
		uciClasses     = flag.Int("uci", 2, "UCI classes in the workload and precomputation")
		churn          = flag.Bool("churn", false, "load mode: fail a lateral link at 40% and restore it at 70% of the run")
		benchJSON      = flag.String("bench-json", "", "load mode: also write the report as JSON to this file")
		listenAddr     = flag.String("listen", "", "serve the binary protocol on this TCP address (daemon mode)")
		unixPath       = flag.String("unix", "", "serve the binary protocol on this unix socket path (daemon mode)")
		connectAddr    = flag.String("connect", "", "load mode: drive a running daemon at this address instead of serving in-process (host:port, or a unix socket path containing '/')")
		maxConns       = flag.Int("max-conns", 0, "daemon mode: concurrent connection limit (0 = default 2048)")
		writeQueue     = flag.Int("write-queue", 0, "daemon mode: per-session reply queue length (0 = default 128)")
		writeTimeout   = flag.Duration("write-timeout", 0, "daemon mode: slow-client grace before eviction (0 = default 2s)")
		reconnectEvery = flag.Int("reconnect-every", 0, "load mode with -connect: each client redials after this many requests (0 = never)")
		replicaID      = flag.Uint("replica-id", 0, "daemon mode: this replica's ID in an HA group (0 = standalone)")
		peersFlag      = flag.String("peers", "", "daemon mode: HA group membership as ID@haAddr@clientAddr, comma-separated, this replica included")
		replicaOf      = flag.Uint("replica-of", 0, "daemon mode: initial primary's replica ID (0 = lowest peer ID)")
		stateKind      = flag.String("state", "hard", "PG handle lifecycle for installed routes: hard, soft, capped")
		stateTTL       = flag.Duration("state-ttl", 30*time.Second, "soft-state TTL in simulated time (-state soft)")
		stateCap       = flag.Int("state-cap", 64, "per-PG handle capacity (-state capped)")
		profiles       = profile.Register(flag.CommandLine)
	)
	flag.Parse()

	if err := validateFlags(flagCoherence{
		Load:           *load,
		Connect:        *connectAddr,
		ReconnectEvery: *reconnectEvery,
		Churn:          *churn,
		Listen:         *listenAddr,
		Unix:           *unixPath,
		ReplicaID:      *replicaID,
		Peers:          *peersFlag,
		ReplicaOf:      *replicaOf,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "routed: %v\n", err)
		flag.Usage()
		return 2
	}

	g, db, workload, events, err := materialize(*scenarioPath, *seed, *requests, *model, *zipfS, *qosClasses, *uciClasses)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	strat, err := synthesis.New(*strategy, g, db, workload, *qosClasses, *uciClasses)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	srv := routeserver.New(strat, routeserver.Config{
		Shards:   *shards,
		Capacity: *cacheCap,
		Workers:  *workers,
		// The query-log ring feeds "plan" its recorded-workload mode: a plan
		// replays the last queries against the shadow world to find pairs
		// that would lose all routes.
		QueryLog: 1024,
	})

	dp, err := routeserver.NewDataPlane(pgstate.Config{
		Kind:     pgstate.Kind(*stateKind),
		TTL:      sim.Time(stateTTL.Microseconds()),
		Capacity: *stateCap,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()

	if *load && *connectAddr != "" {
		// Network load mode: drive a running daemon over the wire. The
		// workload (and the -churn timeline) is regenerated locally from the
		// same seed, so client and daemon agree on the topology.
		var events []daemon.ChurnEvent
		if *churn {
			events = wireChurnEvents(g)
		}
		// A comma-separated -connect names an HA replica set: clients fail
		// over between the addresses and follow NotPrimary redirects.
		var addrs []string
		first := *connectAddr
		if strings.Contains(*connectAddr, ",") {
			addrs = strings.Split(*connectAddr, ",")
			first = addrs[0]
		}
		rep := daemon.LoadRun(networkOf(first), first, workload, daemon.LoadConfig{
			Clients:        *clients,
			ReconnectEvery: *reconnectEvery,
			Events:         events,
			Addrs:          addrs,
			Seed:           *seed,
		})
		printNetReport(os.Stdout, rep)
		if *benchJSON != "" {
			if err := writeNetJSON(*benchJSON, rep); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		if rep.Errors > 0 {
			return 1
		}
		return 0
	}

	if *load {
		if *churn {
			events = append(events, churnEvents(g)...)
		}
		rep := routeserver.Run(srv, workload, routeserver.LoadConfig{Clients: *clients, Events: events})
		printReport(os.Stdout, srv, rep)
		if *benchJSON != "" {
			if err := writeJSON(*benchJSON, srv, rep); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		return 0
	}

	be := daemon.NewBackend(srv, dp, g, db)

	if *listenAddr != "" || *unixPath != "" {
		return runDaemon(be, *listenAddr, *unixPath, daemon.Config{
			MaxConns:     *maxConns,
			WriteQueue:   *writeQueue,
			WriteTimeout: *writeTimeout,
		}, uint32(*replicaID), uint32(*replicaOf), *peersFlag)
	}

	if err := serve(os.Stdin, os.Stdout, be); err != nil {
		return 1
	}
	return 0
}

// flagCoherence carries the mode-selecting flags into validateFlags, which
// is pure so tests can table-drive it.
type flagCoherence struct {
	Load           bool
	Connect        string
	ReconnectEvery int
	Churn          bool
	Listen         string
	Unix           string
	ReplicaID      uint
	Peers          string
	ReplicaOf      uint
}

// validateFlags rejects incoherent flag combinations up front with a usage
// error instead of letting a half-selected mode silently misbehave (e.g.
// -connect without -load would drop into line mode and never dial out).
func validateFlags(f flagCoherence) error {
	daemonMode := f.Listen != "" || f.Unix != ""
	if f.Connect != "" && !f.Load {
		return fmt.Errorf("-connect drives a running daemon from the load harness; add -load")
	}
	if f.ReconnectEvery != 0 && f.Connect == "" {
		return fmt.Errorf("-reconnect-every only applies to network load mode; add -connect")
	}
	if f.Churn && !f.Load {
		return fmt.Errorf("-churn injects events into a load run; add -load")
	}
	if f.Load && daemonMode {
		return fmt.Errorf("-load and -listen/-unix are exclusive: one process is either the load generator or the daemon")
	}
	if f.ReplicaID != 0 && !daemonMode {
		return fmt.Errorf("-replica-id joins an HA group in daemon mode; add -listen or -unix")
	}
	if f.ReplicaID != 0 && f.Peers == "" {
		return fmt.Errorf("-replica-id requires -peers (ID@haAddr@clientAddr,...)")
	}
	if f.Peers != "" && f.ReplicaID == 0 {
		return fmt.Errorf("-peers requires -replica-id to say which entry is this replica")
	}
	if f.ReplicaOf != 0 && f.ReplicaID == 0 {
		return fmt.Errorf("-replica-of names the initial primary of an HA group; add -replica-id and -peers")
	}
	return nil
}

// runDaemon serves the binary protocol on the requested listeners until a
// drain completes — triggered by SIGINT/SIGTERM or a Drain protocol
// message. In-flight requests finish and their replies flush before the
// connections close. With replicaID and peers set, the daemon joins an HA
// replica group: followers stream the primary's warm state and redirect
// clients, and a dead primary is failed over by heartbeat election.
func runDaemon(be *daemon.Backend, tcpAddr, unixPath string, cfg daemon.Config, replicaID, replicaOf uint32, peersSpec string) int {
	d := daemon.New(be, cfg)
	if replicaID != 0 {
		peers, err := parsePeers(peersSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		node, err := ha.NewNode(ha.Config{
			ID: replicaID, Peers: peers, Primary: replicaOf,
		}, be, d)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		node.Start()
		defer node.Stop()
		role := "follower"
		if node.IsPrimary() {
			role = "primary"
		}
		fmt.Printf("replica %d (%s) replicating on %v\n", replicaID, role, node.Addr())
	}
	var listeners []net.Listener
	if tcpAddr != "" {
		ln, err := net.Listen("tcp", tcpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		listeners = append(listeners, ln)
	}
	if unixPath != "" {
		ln, err := net.Listen("unix", unixPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		listeners = append(listeners, ln)
	}
	for _, ln := range listeners {
		fmt.Printf("listening on %v\n", ln.Addr())
		go func(ln net.Listener) {
			if err := d.Serve(ln); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}(ln)
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigC
		signal.Stop(sigC)
		d.Drain()
	}()

	<-d.Done()
	m := d.Metrics()
	fmt.Printf("drained: %d sessions served, %d requests, %d refused, %d evicted\n",
		m.Accepted, m.Requests, m.Refused, m.Evicted)
	return 0
}

// parsePeers parses the -peers spec: comma-separated ID@haAddr@clientAddr.
func parsePeers(spec string) ([]ha.Peer, error) {
	if spec == "" {
		return nil, fmt.Errorf("-replica-id requires -peers (ID@haAddr@clientAddr,...)")
	}
	var peers []ha.Peer
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), "@")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad peer %q, want ID@haAddr@clientAddr", part)
		}
		id, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil || id == 0 {
			return nil, fmt.Errorf("bad peer ID %q", fields[0])
		}
		peers = append(peers, ha.Peer{ID: uint32(id), HAAddr: fields[1], ClientAddr: fields[2]})
	}
	return peers, nil
}

// networkOf picks the dial network for a -connect address: a path-looking
// address means a unix socket, anything else TCP.
func networkOf(addr string) string {
	if strings.ContainsRune(addr, '/') {
		return "unix"
	}
	return "tcp"
}

// wireChurnEvents is -churn for network load mode: the same lateral-link
// fail/restore timeline as churnEvents, expressed as protocol messages.
func wireChurnEvents(g *ad.Graph) []daemon.ChurnEvent {
	links := g.Links()
	if len(links) == 0 {
		return nil
	}
	target := links[0]
	for _, l := range links {
		if l.Class == ad.Lateral {
			target = l
			break
		}
	}
	return []daemon.ChurnEvent{
		{After: 0.4, Op: wire.CtlFail, A: target.A, B: target.B},
		{After: 0.7, Op: wire.CtlRestore, A: target.A, B: target.B},
	}
}

// printNetReport renders a network load-mode report.
func printNetReport(w io.Writer, rep daemon.LoadReport) {
	fmt.Fprintf(w, "requests    %d (%d served, %d no-route, %d errors)\n",
		rep.Requests, rep.Served, rep.NoRoute, rep.Errors)
	fmt.Fprintf(w, "elapsed     %v (%.0f qps)\n", rep.Elapsed, rep.QPS)
	fmt.Fprintf(w, "churn       %d reconnects, %d failed dials, %d redirects\n",
		rep.Reconnects, rep.ReconnectFailures, rep.Redirects)
	fmt.Fprintf(w, "stall       %v max gap between replies\n", rep.MaxStall)
	fmt.Fprintf(w, "latency     p50 %v  p95 %v  p99 %v\n",
		rep.Latency.P50, rep.Latency.P95, rep.Latency.P99)
}

// writeNetJSON writes the machine-readable form of a network load report.
func writeNetJSON(path string, rep daemon.LoadReport) error {
	out, err := json.MarshalIndent(map[string]any{
		"requests":           rep.Requests,
		"served":             rep.Served,
		"no_route":           rep.NoRoute,
		"errors":             rep.Errors,
		"reconnects":         rep.Reconnects,
		"reconnect_failures": rep.ReconnectFailures,
		"redirects":          rep.Redirects,
		"max_stall_ns":       rep.MaxStall.Nanoseconds(),
		"elapsed_ns":         rep.Elapsed.Nanoseconds(),
		"qps":                rep.QPS,
		"latency_p50":        rep.Latency.P50.Nanoseconds(),
		"latency_p95":        rep.Latency.P95.Nanoseconds(),
		"latency_p99":        rep.Latency.P99.Nanoseconds(),
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// materialize builds the internet and workload, either from a scenario file
// (whose events become the churn timeline, spread evenly through the run)
// or generated from the seed.
func materialize(path string, seed int64, requests int, model string, zipfS float64, qos, uci int) (
	*ad.Graph, *policy.DB, []policy.Request, []routeserver.Event, error) {
	if path == "" {
		topo := topology.Generate(topology.Config{
			Seed:                 seed,
			Backbones:            2,
			RegionalsPerBackbone: 3,
			CampusesPerParent:    3,
			LateralProb:          0.25,
			BypassProb:           0.10,
			MultihomedProb:       0.15,
			HybridProb:           0.15,
		})
		db := policy.Generate(topo.Graph, policy.GenConfig{
			Seed:                  seed,
			SourceRestrictionProb: 0.6,
			SourceFraction:        0.5,
			DestRestrictionProb:   0.2,
			DestFraction:          0.7,
			AvoidProb:             0.2,
		})
		workload := trafficgen.Generate(topo.Graph, trafficgen.Config{
			Seed:       seed + 2,
			Requests:   requests,
			StubsOnly:  true,
			Model:      model,
			ZipfS:      zipfS,
			QOSClasses: qos,
			UCIClasses: uci,
		})
		return topo.Graph, db, workload, nil, nil
	}

	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	defer f.Close()
	sc, err := scenario.Load(f)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	g, db, workload, err := sc.Materialize()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	muts, err := sc.Mutations(g, db)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	events := make([]routeserver.Event, len(muts))
	for i, m := range muts {
		events[i] = routeserver.Event{
			After:  float64(i+1) / float64(len(muts)+1),
			Label:  m.Label,
			Apply:  m.Apply,
			Change: m.Change,
		}
	}
	return g, db, workload, events, nil
}

// churnEvents is the built-in -churn timeline: the first lateral link (or,
// failing that, the first link) goes down at 40% of the run and comes back
// at 70%.
func churnEvents(g *ad.Graph) []routeserver.Event {
	links := g.Links()
	if len(links) == 0 {
		return nil
	}
	target := links[0]
	for _, l := range links {
		if l.Class == ad.Lateral {
			target = l
			break
		}
	}
	return []routeserver.Event{
		{After: 0.4, Label: fmt.Sprintf("fail %v-%v", target.A, target.B),
			Apply:  func() { g.RemoveLink(target.A, target.B) },
			Change: synthesis.LinkDownChange(target.A, target.B)},
		{After: 0.7, Label: fmt.Sprintf("restore %v-%v", target.A, target.B),
			Apply:  func() { _ = g.AddLink(target) },
			Change: synthesis.LinkUpChange(target.A, target.B)},
	}
}

// printReport renders a load-mode serving report.
func printReport(w io.Writer, srv *routeserver.Server, rep routeserver.Report) {
	m := rep.Metrics
	fmt.Fprintf(w, "strategy    %s\n", srv.StrategyName())
	fmt.Fprintf(w, "requests    %d (%d served, %d no-route)\n", rep.Requests, rep.Served, rep.NoRoute)
	fmt.Fprintf(w, "elapsed     %v (%.0f qps)\n", rep.Elapsed, rep.QPS)
	fmt.Fprintf(w, "cache       %d hits, %d coalesced, %d misses (%.1f%% served without synthesis)\n",
		m.Hits, m.Coalesced, m.Misses, 100*m.HitRate())
	fmt.Fprintf(w, "churn       %d full invalidations, %d scoped (%d evicted, %d retained), %d evictions\n",
		m.Invalidations, m.ScopedMutations, m.ScopedEvicted, m.ScopedRetained, m.Evictions)
	fmt.Fprintf(w, "latency     p50 %v  p95 %v  p99 %v\n", m.Latency.P50, m.Latency.P95, m.Latency.P99)
	st := rep.Strategy
	fmt.Fprintf(w, "synthesis   %d precompute + %d on-demand expansions, %d entries cached by the strategy\n",
		st.PrecomputeExpansions, st.OnDemandExpansions, st.CacheEntries)
}

// writeJSON writes the machine-readable form of the report.
func writeJSON(path string, srv *routeserver.Server, rep routeserver.Report) error {
	m := rep.Metrics
	out, err := json.MarshalIndent(map[string]any{
		"strategy":         srv.StrategyName(),
		"requests":         rep.Requests,
		"served":           rep.Served,
		"no_route":         rep.NoRoute,
		"elapsed_ns":       rep.Elapsed.Nanoseconds(),
		"qps":              rep.QPS,
		"hits":             m.Hits,
		"coalesced":        m.Coalesced,
		"misses":           m.Misses,
		"hit_rate":         m.HitRate(),
		"invalidations":    m.Invalidations,
		"scoped_mutations": m.ScopedMutations,
		"scoped_evicted":   m.ScopedEvicted,
		"scoped_retained":  m.ScopedRetained,
		"evictions":        m.Evictions,
		"latency_p50":      m.Latency.P50.Nanoseconds(),
		"latency_p95":      m.Latency.P95.Nanoseconds(),
		"latency_p99":      m.Latency.P99.Nanoseconds(),
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// maxLineBytes bounds one line-mode input line (bufio.Scanner's 64KB
// default is too small for scripted sessions with long comment or batch
// lines).
const maxLineBytes = 1 << 20

// serve runs line mode: one query or command per stdin line. It is
// factored over io.Reader/io.Writer so tests can script a full session.
// A read error — including a line over maxLineBytes — is surfaced on out
// and returned; it must not masquerade as a clean quit.
func serve(in io.Reader, out io.Writer, be *daemon.Backend) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		if !serveLine(sc.Text(), out, be) {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(out, "read error: %v\n", err)
		return err
	}
	return nil
}

// serveLine executes one line-mode command against the shared backend —
// the same dispatch the binary protocol uses — reporting whether the
// session continues. The text in and out is the only thing this adapter
// owns.
func serveLine(line string, out io.Writer, be *daemon.Backend) bool {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return true
	}
	fields := strings.Fields(line)
	switch fields[0] {
	case "quit", "exit":
		return false
	case "stats":
		st := be.Stats()
		fmt.Fprintf(out, "gen %d: %d queries, %d hits, %d coalesced, %d misses, %d failures, %d cached\n",
			st.Gen, st.Queries, st.Hits, st.Coalesced, st.Misses, st.Failures, st.Cached)
		// Connection counters exist only when a daemon fronts this backend;
		// line mode stays short so session parity with the wire rendering
		// holds.
		if st.ConnsKnown {
			fmt.Fprintf(out, "conns: %d accepted, %d evicted-slow, %d refused\n",
				st.Accepted, st.EvictedSlow, st.Refused)
		}
	case "fail", "restore":
		a, b, ok := twoIDs(fields[1:])
		if !ok {
			fmt.Fprintf(out, "usage: %s A B\n", fields[0])
			return true
		}
		var evicted, retained int
		if fields[0] == "fail" {
			var flushed int
			var err error
			evicted, retained, flushed, err = be.Fail(a, b)
			if err != nil {
				fmt.Fprintln(out, err)
				return true
			}
			// Failure-driven repair: flush installed handle state that
			// crossed the dead link and queue its flows for "repair".
			if flushed > 0 {
				fmt.Fprintf(out, "flushed %d handle entries\n", flushed)
			}
		} else {
			var err error
			evicted, retained, err = be.Restore(a, b)
			if err != nil {
				fmt.Fprintln(out, err)
				return true
			}
		}
		fmt.Fprintf(out, "ok (evicted %d, retained %d)\n", evicted, retained)
	case "policy":
		// policy AD COST: replace the AD's terms with one open term.
		a, c, ok := twoIDs(fields[1:])
		if !ok {
			fmt.Fprintln(out, "usage: policy AD COST")
			return true
		}
		evicted, retained := be.SetPolicy(a, uint32(c))
		fmt.Fprintf(out, "ok (evicted %d, retained %d)\n", evicted, retained)
	case "invalidate":
		// Full generation bump: drops every cached route, restoring
		// optimality after scoped retentions.
		fmt.Fprintf(out, "ok (gen %d)\n", be.Invalidate())
	case "install":
		// install SRC DST [QOS UCI HOUR]: serve a route and install it as
		// PG handle state so data can flow over it.
		req, err := parseQuery(fields[1:])
		if err != nil {
			fmt.Fprintln(out, "usage: install SRC DST [QOS UCI HOUR]")
			return true
		}
		h, path, found := be.Install(req)
		if !found {
			fmt.Fprintf(out, "no-route %v\n", req)
			return true
		}
		fmt.Fprintf(out, "handle %d via %v\n", h, path)
	case "send":
		// send HANDLE: forward one data packet over installed state.
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: send HANDLE")
			return true
		}
		h, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintf(out, "bad handle %q\n", fields[1])
			return true
		}
		switch r := be.Send(h); {
		case r.Delivered:
			fmt.Fprintln(out, "delivered")
		case r.MissAt != 0:
			fmt.Fprintf(out, "no-state at %v (flow queued for repair)\n", r.MissAt)
		default:
			fmt.Fprintf(out, "unknown handle %d\n", h)
		}
	case "refresh":
		refreshed, failed := be.Refresh()
		fmt.Fprintf(out, "refreshed %d flows, %d lost state\n", refreshed, failed)
	case "tick":
		// tick SECONDS: advance the data plane's soft-state clock.
		secs := int64(1)
		if len(fields) > 1 {
			v, err := strconv.ParseInt(fields[1], 10, 32)
			if err != nil || v <= 0 {
				fmt.Fprintln(out, "usage: tick SECONDS")
				return true
			}
			secs = v
		}
		now, expired := be.Tick(secs)
		fmt.Fprintf(out, "t=%ds, %d entries expired\n", now, expired)
	case "repair":
		attempted, repaired := be.Repair()
		fmt.Fprintf(out, "repaired %d/%d flows\n", repaired, attempted)
	case "state":
		fmt.Fprintln(out, be.State())
	case "plan":
		// plan STEP[; STEP ...]: predict the batch's blast radius without
		// applying it. Same execution path as the wire Plan message.
		steps, err := parsePlanSteps(strings.TrimSpace(strings.TrimPrefix(line, "plan")))
		if err != nil {
			fmt.Fprintln(out, err)
			return true
		}
		for _, l := range daemon.RenderPlanReply(be.HandlePlan(&wire.Plan{Steps: steps})) {
			fmt.Fprintln(out, l)
		}
	case "commit":
		// commit ID: apply a previously planned batch; refused if the
		// mutation epoch moved since the plan.
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: commit PLAN_ID")
			return true
		}
		id, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintf(out, "bad plan id %q\n", fields[1])
			return true
		}
		for _, l := range daemon.RenderPlanReply(be.HandlePlan(&wire.Plan{Commit: true, PlanID: id})) {
			fmt.Fprintln(out, l)
		}
	default:
		req, err := parseQuery(fields)
		if err != nil {
			fmt.Fprintln(out, err)
			return true
		}
		res := be.Query(req)
		if res.Found {
			fmt.Fprintf(out, "%v\n", res.Path)
		} else {
			fmt.Fprintf(out, "no-route %v\n", req)
		}
	}
	return true
}

// parsePlanSteps parses the "plan" argument: semicolon-separated steps,
// each "fail A B", "restore A B", or "policy AD COST".
func parsePlanSteps(spec string) ([]wire.PlanStep, error) {
	usage := fmt.Errorf("usage: plan STEP[; STEP ...] with STEP one of \"fail A B\", \"restore A B\", \"policy AD COST\"")
	if spec == "" {
		return nil, usage
	}
	var steps []wire.PlanStep
	for _, part := range strings.Split(spec, ";") {
		f := strings.Fields(part)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "fail", "restore":
			a, b, ok := twoIDs(f[1:])
			if !ok {
				return nil, usage
			}
			op := uint8(wire.CtlFail)
			if f[0] == "restore" {
				op = wire.CtlRestore
			}
			steps = append(steps, wire.PlanStep{Op: op, A: a, B: b})
		case "policy":
			a, c, ok := twoIDs(f[1:])
			if !ok {
				return nil, usage
			}
			steps = append(steps, wire.PlanStep{Op: wire.CtlPolicy, A: a, Cost: uint32(c)})
		default:
			return nil, fmt.Errorf("unknown plan step %q: %v", f[0], usage)
		}
	}
	if len(steps) == 0 {
		return nil, usage
	}
	return steps, nil
}

// parseQuery parses "SRC DST [QOS UCI HOUR]".
func parseQuery(fields []string) (policy.Request, error) {
	var req policy.Request
	if len(fields) < 2 || len(fields) > 5 {
		return req, fmt.Errorf("query is SRC DST [QOS UCI HOUR]; commands are fail, restore, policy, invalidate, plan, commit, stats, install, send, refresh, tick, repair, state, quit")
	}
	vals := make([]uint64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return req, fmt.Errorf("bad number %q", f)
		}
		vals[i] = v
	}
	req.Src, req.Dst = ad.ID(vals[0]), ad.ID(vals[1])
	if len(vals) > 2 {
		req.QOS = policy.QOS(vals[2])
	}
	if len(vals) > 3 {
		req.UCI = policy.UCI(vals[3])
	}
	if len(vals) > 4 {
		req.Hour = uint8(vals[4])
	}
	return req, nil
}

// twoIDs parses two numeric arguments.
func twoIDs(fields []string) (ad.ID, ad.ID, bool) {
	if len(fields) != 2 {
		return 0, 0, false
	}
	a, errA := strconv.ParseUint(fields[0], 10, 32)
	b, errB := strconv.ParseUint(fields[1], 10, 32)
	if errA != nil || errB != nil {
		return 0, 0, false
	}
	return ad.ID(a), ad.ID(b), true
}

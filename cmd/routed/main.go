// Command routed fronts the route-server serving layer (§5.4): a concurrent
// query engine — one route cache, request coalescing, scoped and full
// invalidation — wrapped around a route-synthesis strategy.
//
// Three modes:
//
//   - Line mode (default): a text skin over the wire protocol. Each stdin
//     line is parsed into the request a protocol client would send, executed
//     by the one executor (daemon.Backend.Handle) — in this process, or with
//     -connect addr by a running daemon, which makes the same binary the
//     operator's client — and the reply printed as text. A line is a
//     query ("SRC DST [QOS UCI HOUR]") or one of the commands "fail A B",
//     "restore A B", "policy AD COST", "invalidate", "stats", and "quit",
//     plus the data-plane commands "install SRC DST [QOS UCI HOUR]", "send
//     HANDLE", "refresh", "tick SECONDS", "repair", and "state".
//     fail/restore/policy invalidate the route cache scoped to
//     the change — entries provably unaffected keep serving (still legal,
//     possibly no longer optimal after a restore or policy broadening);
//     "invalidate" empties the cache, which restores optimality, and
//     reports how many times that has happened (gen). Served routes are
//     installed as per-PG handle state whose lifecycle (-state
//     hard|soft|capped, -state-ttl, -state-cap) follows §6. "plan STEP[;
//     STEP ...]" (steps "fail A B", "restore A B", "policy AD COST")
//     predicts a change batch's blast radius — cache evictions, flow
//     teardowns, pairs losing all routes — without mutating anything, and
//     "commit ID" applies a predicted plan unless the server's mutation
//     epoch moved since (staleness guard). Against a daemon, "stats" adds the
//     daemon's connection counters, and a failed round trip — a follower's
//     NotPrimary redirect, a dead connection — is one error line, exit 1.
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
//     churn mid-run (-churn, or a -scenario file's event timeline, compiled
//     to control ops: update-policy is a policy op carrying the event's term
//     list, kill-primary is invalidate), then prints a serving report.
//     -bench-json writes it machine-readably. With -connect addr the same
//     generator instead replays it over the wire against a running daemon
//     (started on the same seed or scenario file), one connection per client
//     and the control ops sent from one more, with optional
//     connection churn (-reconnect-every); a comma-separated -connect
//     list makes every client a failover client over the replica group
//     (NotPrimary redirects followed, dead replicas rotated past).
//
// The internet is either generated from -seed (the serving topology and
// restricted policy presets of package scenario, which the experiment
// harness shares) or taken from a -scenario file, in which case the
// scenario's workload and events are used too. Both are one
// scenario.Scenario, materialized the same way.
//
// Usage:
//
//	routed [-strategy on-demand|precomputed|hybrid|pruned] [-load] [-connect addr] \
//	       [-scenario file.json] [-seed N] [-requests N] [-model zipf] \
//	       [-clients N] [-churn] [-cache N] [-workers N] \
//	       [-qos N] [-uci N] [-bench-json file] \
//	       [-state hard|soft|capped] [-state-ttl dur] [-state-cap N] \
//	       [-cpuprofile file] [-memprofile file] \
//	       [-blockprofile file] [-mutexprofile file]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/pgstate"
	"repro/internal/profile"
	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/routeserver/ha"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		scenarioPath   = flag.String("scenario", "", "scenario file supplying topology, policy, workload, and — in load mode — the churn events, fired as control ops in process or over -connect")
		seed           = flag.Int64("seed", 42, "seed for the generated internet and workload")
		strategy       = flag.String("strategy", "on-demand", "synthesis strategy: on-demand, precomputed, hybrid, pruned")
		cacheCap       = flag.Int("cache", 0, "server route-cache capacity in entries (0 = default, <0 = unbounded)")
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
		connectAddr    = flag.String("connect", "", "drive a running daemon at this address instead of serving in-process, with -load from the load harness (queries, -churn and -scenario events alike), else from line mode (host:port, or a unix socket path containing '/')")
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
		BenchJSON:      *benchJSON,
		Scenario:       *scenarioPath,
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

	if *connectAddr != "" && !*load {
		// Remote line mode: the same text skin, executed by a running daemon.
		cl, err := daemon.Dial(networkOf(*connectAddr), *connectAddr)
		if err != nil {
			fmt.Println("error:", err)
			return 1
		}
		defer cl.Close()
		return lineMode(cl.Do)
	}

	g, db, workload, scOps, err := materialize(*scenarioPath, *seed, *requests, *model, *zipfS, *qosClasses, *uciClasses)
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

	be := daemon.NewBackend(srv, dp, g, db)

	if *load {
		timeline := scenarioOps(scOps)
		if *churn {
			timeline = append(timeline, churnOps(g)...)
		}
		return runLoad(be, *connectAddr, workload, timeline, routeserver.LoadConfig{
			Clients:        *clients,
			ReconnectEvery: *reconnectEvery,
		}, *seed, *benchJSON)
	}

	if *listenAddr != "" || *unixPath != "" {
		return runDaemon(be, *listenAddr, *unixPath, daemon.Config{
			MaxConns:     *maxConns,
			WriteQueue:   *writeQueue,
			WriteTimeout: *writeTimeout,
		}, uint32(*replicaID), uint32(*replicaOf), *peersFlag)
	}

	return lineMode(local(be))
}

// lineMode serves stdin to stdout over do and exits 1 if the session ended on
// an error (serve has printed it).
func lineMode(do func(wire.Message) (wire.Message, error)) int {
	if serve(os.Stdin, os.Stdout, do) != nil {
		return 1
	}
	return 0
}

// local is line mode's executor in this process: the backend's Handle, with
// the one QueryReply a session would reuse.
func local(be *daemon.Backend) func(wire.Message) (wire.Message, error) {
	var qr wire.QueryReply
	return func(m wire.Message) (wire.Message, error) { return be.Handle(m, &qr), nil }
}

// flagCoherence carries the mode-selecting flags into validateFlags, which
// is pure so tests can table-drive it.
type flagCoherence struct {
	Load           bool
	Connect        string
	ReconnectEvery int
	Churn          bool
	BenchJSON      string
	Scenario       string
	Listen         string
	Unix           string
	ReplicaID      uint
	Peers          string
	ReplicaOf      uint
}

// validateFlags rejects incoherent flag combinations up front with a usage
// error instead of letting a half-selected mode silently misbehave (e.g.
// -churn without -load would drop into line mode and never fire).
func validateFlags(f flagCoherence) error {
	daemonMode := f.Listen != "" || f.Unix != ""
	if strings.Contains(f.Connect, ",") && !f.Load {
		return fmt.Errorf("a -connect replica set is followed only by the load harness's failover clients; add -load or name one daemon")
	}
	if f.Connect != "" && daemonMode {
		return fmt.Errorf("-connect and -listen/-unix are exclusive: one process is either a daemon's client or the daemon")
	}
	if f.ReconnectEvery != 0 && (f.Connect == "" || !f.Load) {
		return fmt.Errorf("-reconnect-every only applies to network load mode; add -load -connect")
	}
	if f.Churn && !f.Load {
		return fmt.Errorf("-churn injects events into a load run; add -load")
	}
	if f.BenchJSON != "" && !f.Load {
		return fmt.Errorf("-bench-json writes a load run's report; add -load")
	}
	if f.Scenario != "" && f.Connect != "" && !f.Load {
		return fmt.Errorf("remote line mode serves the daemon's world, not a -scenario file; drop -scenario or add -load")
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

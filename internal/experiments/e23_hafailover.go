package experiments

import (
	"fmt"
	"net"
	"time"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/routeserver/ha"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// E23HAFailover measures what replicated route servers (internal/routeserver/ha)
// buy when the primary dies mid-churn: the warm cache a follower accumulated
// from the sync stream versus the empty cache of a cold restart. The E22
// regime is replayed — a 600-request warm phase, then a link-local event
// timeline with a 50-request slice (4 concurrent clients) after each event —
// but the timeline is split around a primary kill: three events served by the
// original primary, then the kill, then three events served by whichever
// server survives. Three servers answer the post-kill half:
//
//   - warm: the reference — the original server, never killed.
//   - promoted: a 2-replica group's follower, promoted by heartbeat-loss
//     election after the primary is killed; its cache arrived over the sync
//     stream (cache puts with dependency footprints, control ops replayed
//     through its own backend so scoped invalidation evicted the same
//     entries).
//   - cold: a fresh server with the same topology and policy state but an
//     empty cache — the restart-from-scratch alternative to replication.
//
// The table reports the post-kill slices only. Counters are scheduling-
// independent for the same reason as E20/E22 (uncapped cache, negative
// caching, coalescing → one synthesis per unique key per epoch), and the
// promoted follower's cache is pinned by a sync barrier (applied sequence ==
// backlog tail) before the kill, so its content equals the primary's exactly
// and the rendered table is byte-identical under any parallelism. Failover
// wall-clock (availability gap, promotion latency) is timing, not counting,
// and is measured by BenchmarkHAFailover instead.
func E23HAFailover(seed int64) *metrics.Table {
	t := metrics.NewTable("E23 — failover to a warm replica vs cold restart",
		"workload", "server", "cache", "churn-reqs", "synth", "hit-rate", "legal-ok")

	const requests = 600
	base := defaultTopology(seed)

	for _, model := range []string{"uniform", "zipf"} {
		workload := servingWorkload(base.Graph, seed+2, requests, model)
		pre, post := e23Timeline(base.Graph)

		// Warm reference: one server lives through the whole timeline.
		{
			be, srv := e23Stack(base.Graph, seed)
			o := newE23Oracle(base.Graph, seed)
			routeserver.ServePhase(srv, workload, e23Clients)
			e23PreChurn(be, srv, workload, pre, o)
			cache := srv.CacheLen()
			churn, synth, legal, hr := e23Measure(be, srv, workload, post, o)
			t.AddRow(model, "warm", cache, churn, synth, hr, legal)
		}

		// Promoted follower: the primary serves the warm phase and the
		// pre-kill churn (every insert and mutation streaming to the
		// follower), is killed, and the follower takes over.
		{
			prim, fol := e23Group(base.Graph, seed)
			o := newE23Oracle(base.Graph, seed)
			routeserver.ServePhase(prim.srv, workload, e23Clients)
			e23PreChurn(prim.be, prim.srv, workload, pre, o)
			e23Wait(func() bool {
				latest := prim.node.BacklogLatest()
				return latest > 0 && fol.node.AppliedSeq() == latest
			}, "follower sync barrier")
			prim.node.Kill()
			e23Wait(fol.node.IsPrimary, "follower promotion")
			cache := fol.srv.CacheLen()
			churn, synth, legal, hr := e23Measure(fol.be, fol.srv, workload, post, o)
			fol.node.Stop()
			t.AddRow(model, "promoted", cache, churn, synth, hr, legal)
		}

		// Cold restart: same control-plane state (the pre-kill events are
		// applied, unserved), empty cache.
		{
			be, srv := e23Stack(base.Graph, seed)
			o := newE23Oracle(base.Graph, seed)
			for _, op := range pre {
				e23Apply(be, o, op)
			}
			cache := srv.CacheLen()
			churn, synth, legal, hr := e23Measure(be, srv, workload, post, o)
			t.AddRow(model, "cold", cache, churn, synth, hr, legal)
		}
	}
	t.AddNote("timeline: 600-request warm, three link-local events + 50-request slices (4 clients), primary kill, three more events + slices; the table covers the post-kill slices only")
	t.AddNote("promoted = 2-replica group's follower after heartbeat-loss election; its cache arrived over the sync stream and is barriered to the primary's backlog tail before the kill, so warm and promoted serve identical state")
	t.AddNote("cache = entries held when the post-kill phase starts; cold restarts with the same topology+policy but nothing cached")
	t.AddNote("legal-ok = served routes legal under the then-current topology+policy on an independently mutated oracle world; no-route answers verified by exhaustive search")
	return t
}

// e23Clients is the concurrent client count per serve phase, e23PhaseLen
// the post-event slice length — both as in E22.
const (
	e23Clients  = 4
	e23PhaseLen = 50
)

// e23Timeline splits the E22-style link-local event list around the kill:
// fail/restore of the first lateral and a failure of the second before it,
// then a policy rewrite at the quietest transit, the second lateral's
// restoration, and a second policy change after it (two open-term rewrites,
// where E22 has a rewrite and its revert). E22 resolves its steps on a World
// of its own; here every op flows through a Backend so the HA row replicates
// it.
func e23Timeline(g *ad.Graph) (pre, post []wire.PlanStep) {
	l := lateralLinks(g, 2)
	target := quietestTransit(g)
	pre = []wire.PlanStep{failOf(l[0]), restoreOf(l[0]), failOf(l[1])}
	post = []wire.PlanStep{wire.OpenPolicy(target, 10), restoreOf(l[1]), wire.OpenPolicy(target, 3)}
	return pre, post
}

// e23Apply applies one timeline op to the server and mirrors it onto the
// oracle; the timeline is built from the world's own links and ADs, so a
// refusal is a harness bug.
func e23Apply(be *daemon.Backend, o *synthesis.World, op wire.PlanStep) {
	if _, err := be.Control(op); err != nil {
		panic(fmt.Sprintf("e23: %v: %v", op, err))
	}
	if _, err := o.Apply(op); err != nil {
		panic(fmt.Sprintf("e23 oracle: %v: %v", op, err))
	}
}

// e23Stack builds one server's full serving stack over clones of the base
// world, in the permissive E22 policy regime.
func e23Stack(base *ad.Graph, seed int64) (*daemon.Backend, *routeserver.Server) {
	g := base.Clone()
	db := e22Policy(g, seed)
	srv := routeserver.New(synthesis.NewOnDemand(g, db), routeserver.Config{})
	dp, err := routeserver.NewDataPlane(pgstate.Config{Kind: pgstate.Soft, TTL: 30 * sim.Second})
	if err != nil {
		panic(err)
	}
	return daemon.NewBackend(srv, dp, g, db), srv
}

// e23Replica is one group member's stack.
type e23Replica struct {
	node *ha.Node
	be   *daemon.Backend
	srv  *routeserver.Server
}

// e23Group starts a 2-replica group (IDs 1 and 2, replica 1 primary) over
// independent clones of the base world.
func e23Group(base *ad.Graph, seed int64) (prim, fol *e23Replica) {
	peers := make([]ha.Peer, 2)
	lns := make([]net.Listener, 2)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		lns[i] = ln
		peers[i] = ha.Peer{ID: uint32(i + 1), HAAddr: ln.Addr().String()}
	}
	mk := func(i int) *e23Replica {
		be, srv := e23Stack(base, seed)
		// A generous failure-detection window: the experiment may share one
		// CPU with the rest of the harness, and a heartbeat starved past the
		// timeout would spuriously promote the follower mid-replication.
		// Only the post-kill promotion wait pays for it, and no counter in
		// the table depends on timing.
		node, err := ha.NewNode(ha.Config{
			ID: uint32(i + 1), Peers: peers,
			HeartbeatEvery:   50 * time.Millisecond,
			HeartbeatTimeout: 2 * time.Second,
			Listener:         lns[i],
		}, be, nil)
		if err != nil {
			panic(err)
		}
		return &e23Replica{node: node, be: be, srv: srv}
	}
	prim, fol = mk(0), mk(1)
	prim.node.Start()
	fol.node.Start()
	return prim, fol
}

// e23PreChurn runs the pre-kill half: each event followed by its workload
// slice.
func e23PreChurn(be *daemon.Backend, srv *routeserver.Server, workload []policy.Request, pre []wire.PlanStep, o *synthesis.World) {
	for i, op := range pre {
		e23Apply(be, o, op)
		lo := (i * e23PhaseLen) % len(workload)
		routeserver.ServePhase(srv, workload[lo:lo+e23PhaseLen], e23Clients)
	}
}

// e23Measure runs the post-kill half against one server and reports its
// slice counters: each event, its slice, and the legality of every answer
// against the oracle world.
func e23Measure(be *daemon.Backend, srv *routeserver.Server, workload []policy.Request, post []wire.PlanStep, o *synthesis.World) (churn int, synth uint64, legal int, hitRate float64) {
	warm := srv.Snapshot()
	oracle := core.NewOracle(o.G, o.DB)
	for i, op := range post {
		e23Apply(be, o, op)
		lo := ((len(post) + i) * e23PhaseLen) % len(workload)
		slice := workload[lo : lo+e23PhaseLen]
		results := routeserver.ServePhase(srv, slice, e23Clients)
		churn += len(slice)
		for j, req := range slice {
			if e22Legal(oracle, req, results[j]) {
				legal++
			}
		}
	}
	fin := srv.Snapshot()
	synth = fin.Misses - warm.Misses
	hitRate = float64((fin.Hits-warm.Hits)+(fin.Coalesced-warm.Coalesced)) / float64(churn)
	return churn, synth, legal, hitRate
}

// newE23Oracle is the independent legality world: the same base clone,
// mutated in lockstep with the measured server by the same resolver.
func newE23Oracle(base *ad.Graph, seed int64) *synthesis.World {
	g := base.Clone()
	return synthesis.NewWorld(g, e22Policy(g, seed))
}

// e23Wait polls cond until it holds, panicking after a generous deadline
// (the barriers wait on real goroutines and sockets; the counters they
// guard stay deterministic).
func e23Wait(cond func() bool, what string) {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			panic("e23: timed out waiting for " + what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

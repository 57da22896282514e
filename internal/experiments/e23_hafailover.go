package experiments

import (
	"fmt"
	"net"
	"time"

	"repro/internal/ad"
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
// and belongs to routed's load mode (Report.MaxStall); that a load run loses
// no request across a primary kill is ha.TestLoadRunSurvivesPrimaryKill.
func E23HAFailover(seed int64) *metrics.Table {
	t := metrics.NewTable("E23 — failover to a warm replica vs cold restart",
		"workload", "server", "cache", "churn-reqs", "synth", "hit-rate", "legal-ok")

	const requests = 600
	base := defaultTopology(seed)

	// lockstep applies each op to a server's backend and to the oracle world
	// its answers are checked against; the timeline is built from the
	// world's own links and ADs, so a refusal is a harness bug.
	lockstep := func(be *daemon.Backend, o *synthesis.World) func(wire.PlanStep) {
		return func(op wire.PlanStep) {
			_, err := be.Control(op)
			if err == nil {
				_, err = o.Apply(op)
			}
			if err != nil {
				panic(fmt.Sprintf("e23: %v: %v", op, err))
			}
		}
	}

	for _, model := range []string{"uniform", "zipf"} {
		workload := servingWorkload(base.Graph, seed+2, requests, model)
		pre, post := e23Timeline(base.Graph)

		// Warm reference: one server lives through the whole timeline.
		{
			st, o := newServingStack(base.Graph, seed), newE23Oracle(base.Graph, seed)
			step := lockstep(st.be, o)
			routeserver.ServePhase(st.srv, workload, churnClients)
			replay(st.srv, o, workload, pre, 0, step)
			cache := st.srv.CacheLen()
			churn, synth, hr, legal := replay(st.srv, o, workload, post, len(pre), step)
			t.AddRow(model, "warm", cache, churn, synth, hr, legal)
		}

		// Promoted follower: the primary serves the warm phase and the
		// pre-kill churn (every insert and mutation streaming to the
		// follower), is killed, and the follower takes over.
		{
			prim, fol := e23Group(base.Graph, seed)
			o := newE23Oracle(base.Graph, seed)
			routeserver.ServePhase(prim.srv, workload, churnClients)
			replay(prim.srv, o, workload, pre, 0, lockstep(prim.be, o))
			e23Wait(func() bool {
				latest := prim.node.BacklogLatest()
				return latest > 0 && fol.node.AppliedSeq() == latest
			}, "follower sync barrier")
			prim.node.Kill()
			e23Wait(fol.node.IsPrimary, "follower promotion")
			cache := fol.srv.CacheLen()
			churn, synth, hr, legal := replay(fol.srv, o, workload, post, len(pre), lockstep(fol.be, o))
			fol.node.Stop()
			t.AddRow(model, "promoted", cache, churn, synth, hr, legal)
		}

		// Cold restart: same control-plane state (the pre-kill events are
		// applied, unserved), empty cache.
		{
			st, o := newServingStack(base.Graph, seed), newE23Oracle(base.Graph, seed)
			step := lockstep(st.be, o)
			for _, op := range pre {
				step(op)
			}
			cache := st.srv.CacheLen()
			churn, synth, hr, legal := replay(st.srv, o, workload, post, len(pre), step)
			t.AddRow(model, "cold", cache, churn, synth, hr, legal)
		}
	}
	t.AddNote("timeline: 600-request warm, three link-local events + 50-request slices (4 clients), primary kill, three more events + slices; the table covers the post-kill slices only")
	t.AddNote("promoted = 2-replica group's follower after heartbeat-loss election; its cache arrived over the sync stream and is barriered to the primary's backlog tail before the kill, so warm and promoted serve identical state")
	t.AddNote("cache = entries held when the post-kill phase starts; cold restarts with the same topology+policy but nothing cached")
	t.AddNote("legal-ok = served routes legal under the then-current topology+policy on an independently mutated oracle world; no-route answers verified by exhaustive search")
	return t
}

// e23Timeline splits the E22-style link-local event list around the kill:
// fail/restore of the first lateral and a failure of the second before it,
// then a policy rewrite at the quietest transit, the second lateral's
// restoration, and a second policy change after it (two open-term rewrites,
// where E22 has a rewrite and its revert). E22 resolves its steps on a World
// of its own; here every op flows through a Backend so the HA row replicates
// it.
func e23Timeline(g *ad.Graph) (pre, post []wire.PlanStep) {
	l := g.ChurnLinks(2)
	target := quietestTransit(g)
	pre = []wire.PlanStep{failOf(l[0]), restoreOf(l[0]), failOf(l[1])}
	post = []wire.PlanStep{wire.OpenPolicy(target, 10), restoreOf(l[1]), wire.OpenPolicy(target, 3)}
	return pre, post
}

// servingStack is one route server's serving stack — an on-demand server
// keeping a log of its last 2,048 queries (the population E25's plans
// assess), a soft-state data plane (no experiment advances its clock, so
// its TTL never fires), and the backend every control op goes through —
// over a private clone of the serving world in E22's permissive policy
// regime. E23's three servers, its HA group and E25 each build one.
type servingStack struct {
	g   *ad.Graph
	db  *policy.DB
	srv *routeserver.Server
	dp  *routeserver.DataPlane
	be  *daemon.Backend
}

// newServingStack builds a serving stack over a clone of base.
func newServingStack(base *ad.Graph, seed int64) *servingStack {
	g := base.Clone()
	db := e22Policy(g, seed)
	srv := routeserver.New(synthesis.NewOnDemand(g, db), routeserver.Config{QueryLog: 2048})
	dp, err := routeserver.NewDataPlane(pgstate.Config{Kind: pgstate.Soft, TTL: 300 * sim.Second})
	if err != nil {
		panic(err)
	}
	return &servingStack{g, db, srv, dp, daemon.NewBackend(srv, dp, g, db)}
}

// e23Replica is one group member's stack.
type e23Replica struct {
	node *ha.Node
	*servingStack
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
		st := newServingStack(base, seed)
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
		}, st.be, nil)
		if err != nil {
			panic(err)
		}
		return &e23Replica{node, st}
	}
	prim, fol = mk(0), mk(1)
	prim.node.Start()
	fol.node.Start()
	return prim, fol
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

package main

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// pairClass is a request without its hour. The generated policy has no
// time-of-day windows (GenConfig.TimeWindowProb 0), so whether a legal
// route exists is a property of the pair and its classes alone, and the
// oracle's exhaustive search runs once per pairClass, not once per key.
type pairClass struct {
	src, dst ad.ID
	qos      policy.QOS
	uci      policy.UCI
}

func pairClassOf(r policy.Request) pairClass {
	return pairClass{src: r.Src, dst: r.Dst, qos: r.QOS, uci: r.UCI}
}

// routable asks the oracle, on every CPU, whether each pairClass has a
// legal route.
func routable(oracle core.Oracle, reqs map[pairClass]policy.Request) map[pairClass]bool {
	list := make([]policy.Request, 0, len(reqs))
	for _, r := range reqs {
		list = append(list, r)
	}
	has := make([]bool, len(list))
	onEveryCPU(len(list), func(i int) { has[i] = oracle.HasRoute(list[i]) })
	out := make(map[pairClass]bool, len(list))
	for j, r := range list {
		out[pairClassOf(r)] = has[j]
	}
	return out
}

// validate judges every distinct answer the generators queued, after the
// timed phase. A found path must be physically valid and policy-legal on
// the generated (all-links-up) graph. On a static workload a "no route"
// must agree with the oracle's exhaustive search; beside control
// mutations it may be true of a moment the oracle no longer has, so there
// the post-quiesce sweep asks for exact agreement instead. It returns the
// number of wrong answers.
func validate(in *inputs, oracle core.Oracle, gens []*generator, static bool, res *result) (wrong uint64) {
	negatives := make(map[pairClass]policy.Request)
	for _, g := range gens {
		for _, p := range g.pending {
			req := in.keys[p.key]
			switch {
			case p.found:
				if !oracle.Legal(p.path, req) {
					wrong++
					res.problem("illegal route for %v: %v", req, p.path)
				}
			case static:
				negatives[pairClassOf(req)] = req
			}
		}
	}
	if len(negatives) == 0 {
		return wrong
	}
	has := routable(oracle, negatives)
	for _, g := range gens {
		for _, p := range g.pending {
			if req := in.keys[p.key]; !p.found && has[pairClassOf(req)] {
				wrong++
				res.problem("%v answered no-route, the oracle finds one", req)
			}
		}
	}
	return wrong
}

// sweep queries every distinct key once more over a socket after the
// control connection has restored every link, and asks for exact oracle
// agreement: found where and only where a legal route exists, and every
// found path legal. Restoring a link evicts every cached negative answer,
// so no answer here predates the final state.
func sweep(st *stack, oracle core.Oracle, res *result) (sent, wrong uint64) {
	cc, err := dial("tcp", st.addr())
	if err != nil {
		res.problem("sweep: %v", err)
		return 1, 1
	}
	defer cc.close()
	negatives := make(map[pairClass]policy.Request)
	for i, req := range st.in.keys {
		sent++
		m, err := cc.roundTrip(&wire.Query{ID: uint64(i), Req: req})
		if err != nil {
			res.problem("sweep: %v", err)
			return sent, wrong + 1
		}
		rep, ok := m.(*wire.QueryReply)
		switch {
		case !ok || rep.ID != uint64(i):
			wrong++
			res.problem("sweep: request %d answered by %v", i, m.Type())
		case !rep.Found:
			negatives[pairClassOf(req)] = req
		case !oracle.Legal(rep.Path, req):
			wrong++
			res.problem("sweep: illegal route for %v: %v", req, rep.Path)
		}
	}
	for pc, routed := range routable(oracle, negatives) {
		if routed {
			wrong++
			res.problem("sweep: %v answered no-route, the oracle finds one", negatives[pc])
		}
	}
	return sent, wrong
}

// reconcile checks the program's own counters against what the generators
// sent: every query is exactly one of hit, miss or coalesced wait, and
// there are as many as were sent (through sockets and directly); the
// daemon dispatched one request per socket message; no session was evicted
// or refused; and every failed link is back.
func reconcile(st *stack, socketQueries, ctlOps uint64, res *result) {
	snap := st.srv.Snapshot()
	if got := snap.Hits + snap.Misses + snap.Coalesced; got != snap.Queries {
		res.Failed++
		res.problem("server counters: hits+misses+coalesced = %d, queries = %d", got, snap.Queries)
	}
	if want := socketQueries + st.direct; snap.Queries != want {
		res.Failed++
		res.problem("server answered %d queries, %d were sent", snap.Queries, want)
	}
	dm := st.d.Metrics()
	if want := socketQueries + ctlOps; dm.Requests != want {
		res.Failed++
		res.problem("daemon dispatched %d requests, %d were sent", dm.Requests, want)
	}
	if dm.Evicted != 0 || dm.Refused != 0 {
		res.Failed++
		res.problem("daemon evicted %d slow sessions and refused %d connections", dm.Evicted, dm.Refused)
	}
	// The graph is the server's to mutate: read it the way the plan engine
	// does, under the read side of the strategy lock.
	var links int
	_, _, _, _, _ = st.srv.CollectAffected(func() ([]synthesis.Change, error) {
		links = st.in.g.NumLinks()
		return nil, nil
	})
	if links != st.links {
		res.Failed++
		res.problem("graph has %d links after the run, %d before", links, st.links)
	}
}

// Package daemon makes the route-server serving layer (§5.4) a real
// network daemon: per-connection sessions speaking the framed binary
// protocol of internal/wire (route queries, control-plane mutations,
// data-plane operations, stats, graceful drain) over TCP or unix sockets,
// with bounded per-session write queues, slow-client eviction, connection
// limits, and drain semantics (stop accepting, finish in-flight requests,
// flush replies, close).
//
// The wire protocol is the only API: Backend.Handle executes every request,
// and cmd/routed's line mode is a text skin over it — each line is parsed
// into the wire.Message a session would have decoded and the reply rendered
// back to text — so no front end has operations of its own.
package daemon

import (
	"fmt"
	"sync"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/routeserver/plan"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// Backend bundles the serving state one daemon (or line-mode session)
// operates on; Handle executes every protocol request against it. Queries
// and data-plane operations are safe for any number of concurrent
// sessions (Server and DataPlane synchronize internally); control-plane
// mutations are serialized by the backend's own lock, which also protects
// the world and makes its reads in control handlers safe against
// concurrent mutation (all world writes happen under this lock, inside
// MutateScoped's exclusive section).
type Backend struct {
	srv *routeserver.Server
	dp  *routeserver.DataPlane

	mu sync.Mutex
	// world is the graph, policy database and failed-link memory every
	// control op resolves against.
	world *synthesis.World

	// plans holds pending what-if plans by ID, awaiting Commit or
	// displacement (the store is bounded; the oldest plan is dropped when
	// a new one would exceed maxPendingPlans).
	planSeq uint64
	plans   map[uint64]*pendingPlan

	// replicate, when set, is called inside each control mutation's
	// MutateScoped closure — i.e. under the server's strategy lock — so an
	// HA primary appends the op to its sync backlog in exactly the order
	// mutations interleave with cache inserts. Nil outside an HA group.
	replicate func(op wire.PlanStep)
	// connMetrics, when set, reports the daemon's connection counters for
	// the stats command. Nil on front ends with no daemon (line mode).
	connMetrics func() Metrics
}

// NewBackend wires a backend over the serving stack.
func NewBackend(srv *routeserver.Server, dp *routeserver.DataPlane, g *ad.Graph, db *policy.DB) *Backend {
	return &Backend{srv: srv, dp: dp, world: synthesis.NewWorld(g, db)}
}

// Server returns the wrapped route server.
func (b *Backend) Server() *routeserver.Server { return b.srv }

// SetReplicator registers the HA replication hook; fn is invoked inside
// every control mutation's exclusive section. Set it before the backend
// starts serving.
func (b *Backend) SetReplicator(fn func(op wire.PlanStep)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.replicate = fn
}

// SetConnMetrics registers the daemon connection-counter source the stats
// command reports. daemon.New wires it automatically.
func (b *Backend) SetConnMetrics(fn func() Metrics) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.connMetrics = fn
}

// Query answers one route request.
func (b *Backend) Query(req policy.Request) routeserver.Result {
	return b.srv.Query(req)
}

// Effect records what one applied control op actually did: the scoped
// invalidation's counts, the installed handle entries a link failure
// flushed, and — for a full invalidation — the new generation.
type Effect struct {
	Evicted, Retained, Flushed int
	Gen                        uint64
}

// Control applies one control op — every front end's only way to mutate the
// world: fail and restore of a link, the replacement of an AD's term list,
// the full invalidation. The op is resolved against the world, performed and
// replicated under the server's strategy lock with the cache invalidation
// scoped to what it changed (fail: routes crossing the link; restore and
// policy: retained entries stay legal but may no longer be optimal until a
// full invalidation), and a failed link's installed handle state is flushed
// for failure-driven repair. A refused op changes nothing.
func (b *Backend) Control(op wire.PlanStep) (Effect, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.control(op)
}

// control is Control's body; caller holds b.mu (Commit loops it over a
// batch under one hold).
func (b *Backend) control(op wire.PlanStep) (eff Effect, err error) {
	ch, apply, err := b.world.Resolve(op)
	if err != nil {
		return eff, err
	}
	eff.Evicted, eff.Retained = b.srv.MutateScoped(ch, func() {
		apply()
		if b.replicate != nil {
			b.replicate(op)
		}
	})
	switch ch.Kind {
	case synthesis.ChangeLinkDown:
		eff.Flushed = b.dp.InvalidateLink(op.A, op.B)
	case synthesis.ChangeFull:
		eff.Gen = b.srv.Generation()
	}
	return eff, nil
}

// Fail is Control of a CtlFail step.
func (b *Backend) Fail(x, y ad.ID) (evicted, retained, flushed int, err error) {
	eff, err := b.Control(wire.PlanStep{Op: wire.CtlFail, A: x, B: y})
	return eff.Evicted, eff.Retained, eff.Flushed, err
}

// Restore is Control of a CtlRestore step.
func (b *Backend) Restore(x, y ad.ID) (evicted, retained int, err error) {
	eff, err := b.Control(wire.PlanStep{Op: wire.CtlRestore, A: x, B: y})
	return eff.Evicted, eff.Retained, err
}

// maxPendingPlans bounds the uncommitted-plan store: plans are cheap to
// recompute, so an operator juggling more than this many proposals just
// re-plans the displaced one.
const maxPendingPlans = 16

// pendingPlan is one computed, not-yet-committed what-if plan.
type pendingPlan struct {
	steps  []wire.PlanStep
	report *plan.Report
}

// Plan computes the blast radius of applying steps, in order, against the
// live serving state — read-only, under the same lock control mutations
// take — and parks the batch under a fresh plan ID for a later Commit. The
// recorded query log (when the server has one) is replayed as the assessed
// workload.
func (b *Backend) Plan(steps []wire.PlanStep) (id uint64, rep *plan.Report, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rep, err = plan.Compute(b.srv, b.dp, b.world, steps,
		plan.Config{Workload: b.srv.RecentQueries()})
	if err != nil {
		return 0, nil, err
	}
	b.planSeq++
	id = b.planSeq
	if b.plans == nil {
		b.plans = make(map[uint64]*pendingPlan)
	}
	if len(b.plans) >= maxPendingPlans {
		oldest := uint64(0)
		for pid := range b.plans {
			if oldest == 0 || pid < oldest {
				oldest = pid
			}
		}
		delete(b.plans, oldest)
	}
	b.plans[id] = &pendingPlan{steps: steps, report: rep}
	return id, rep, nil
}

// CommitResult records what applying a whole plan actually did: per-step
// counts plus the batch totals (Retained is the final step's count —
// what is still cached once the batch has landed).
type CommitResult struct {
	Steps             []Effect
	Evicted, Retained int
	Flushed           int
}

// Commit applies a previously computed plan. The staleness guard refuses
// if the server's mutation epoch moved since the plan was computed — any
// conflicting control mutation (not a routine cache fill) bumps it, so a
// stale plan's predictions can no longer be trusted and the operator must
// re-plan. A committed (or refused-as-stale) plan leaves the store; on a
// mid-batch step error the earlier steps stay applied, exactly as if
// issued individually, and the error reports which step failed.
func (b *Backend) Commit(id uint64) (CommitResult, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.plans[id]
	if !ok {
		return CommitResult{}, fmt.Errorf("unknown plan %d", id)
	}
	delete(b.plans, id)
	if now := b.srv.Epoch(); now != p.report.Epoch {
		return CommitResult{}, fmt.Errorf("plan %d is stale: mutation epoch moved %d -> %d, re-plan",
			id, p.report.Epoch, now)
	}
	var out CommitResult
	for i, st := range p.steps {
		cs, err := b.control(st)
		if err != nil {
			return out, fmt.Errorf("plan %d step %d (%v): %v", id, i+1, st, err)
		}
		out.Steps = append(out.Steps, cs)
		out.Evicted += cs.Evicted
		out.Retained = cs.Retained
		out.Flushed += cs.Flushed
	}
	return out, nil
}

// Install serves a route for req and installs it as PG handle state.
func (b *Backend) Install(req policy.Request) (handle uint64, path ad.Path, found bool) {
	res := b.srv.Query(req)
	if !res.Found {
		return 0, nil, false
	}
	return b.dp.Install(req, res.Path), res.Path, true
}

// Package plan is the what-if engine the paper's §6 calls for ("tools to
// help predict the impact of policies"): it takes a proposed change — or an
// ordered batch, e.g. a staged policy rollout — and computes its blast
// radius on the live serving layer before anything is applied.
//
// A plan is computed in two phases. First, a read-only snapshot under the
// server's strategy lock (Server.CollectAffected): the batch is applied to a
// clone of the world — by synthesis.World.After, over the function a commit
// applies it to the live world with — to derive each step's
// synthesis.Change, and each
// change's cache victims are resolved through the same reverse indexes and
// AffectsPath/AffectsNegative soundness rules scoped eviction applies —
// without deleting anything. Nothing a concurrent query can observe is
// mutated, and the snapshot cost is proportional to the batch's blast
// radius (index fan-out), not to the cache size. Second, outside all server
// locks, policytool.Classify shadow-re-synthesizes the affected population
// (the recorded workload plus every evicted pair and torn-down flow) against
// the pre- and post-change worlds to find which pairs lose all routes, so
// plan reports and policytool assessments can never disagree.
//
// The report carries the epoch the snapshot corresponds to; the
// plan-then-commit workflow in daemon.Backend refuses to commit a plan
// whose epoch the server has moved past (any conflicting mutation — not a
// routine cache fill — bumps it).
package plan

import (
	"sort"
	"time"

	"repro/internal/policy"
	"repro/internal/policytool"
	"repro/internal/routeserver"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// Config bounds a plan computation.
type Config struct {
	// Budget caps the population size the shadow pool re-synthesizes
	// (each member costs two FindRoutes). 0 means the 8192 default; < 0
	// means unbounded. When the affected population exceeds it, the
	// population is truncated deterministically (sorted order) and the
	// report is marked Truncated.
	Budget int
	// Workload is the recorded traffic to assess — typically the server's
	// query-log ring (Server.RecentQueries()) — so "which pairs lose all
	// routes" reflects real traffic, not just cache residency.
	Workload []policy.Request
}

// StepReport is the predicted effect of one step, in batch order. Counts
// are incremental: a cache entry or flow already claimed by an earlier
// step is not counted again, mirroring sequential application.
type StepReport struct {
	// Evicted counts cache entries this step newly evicts; Retained is
	// the population still cached after it.
	Evicted, Retained int
	// Teardowns counts live data-plane flows this step newly tears down.
	Teardowns int
}

// Bill is the estimated re-synthesis cost of the batch: every evicted
// cache key whose next query must run a synthesis, priced by the live
// synthesis-latency histogram.
type Bill struct {
	// Count is the number of re-syntheses the batch provokes (one per
	// evicted key on its next miss; coalescing dedupes concurrent ones).
	Count int
	// PerSynth and P95 are the mean and 95th-percentile observed
	// synthesis latencies; Projected is Count × PerSynth. All zero when
	// the server has not yet observed a synthesis.
	PerSynth, P95, Projected time.Duration
}

// Report is the predicted blast radius of a plan batch.
type Report struct {
	// Steps holds the per-step predictions in batch order.
	Steps []StepReport
	// EvictedKeys is the sorted union of cache keys the batch evicts;
	// Retained is the population left cached.
	EvictedKeys []routeserver.Key
	Retained    int
	// Teardowns is the sorted union of live flow handles torn down.
	Teardowns []uint64
	// Population is the sorted, deduplicated set of requests the shadow
	// pool assessed: the recorded workload, every evicted pair, and every
	// torn-down flow's intent. Truncated reports whether the budget cut
	// it short.
	Population []policy.Request
	Truncated  bool
	// Impact classifies the population before vs after the batch through
	// the shared policytool path (gained/lost/rerouted, unroutable after,
	// transit shift).
	Impact policytool.Impact
	// Bill is the estimated re-synthesis cost.
	Bill Bill
	// Epoch and Gen identify the server state the plan was computed
	// against; a commit must refuse if the epoch has moved since.
	Epoch, Gen uint64
}

// Compute predicts the blast radius of applying steps, in order, to the
// serving stack: srv's route cache, dp's installed flow state (the flows
// the gateway rules fail, from DataPlane.Predict), and the world w the
// strategy synthesizes over, which Compute never mutates. The caller must
// hold whatever lock serializes control mutations (Backend.Plan holds the
// backend lock), so w is stable for the duration: it is the pre-change
// state, read in place.
func Compute(srv *routeserver.Server, dp *routeserver.DataPlane, w *synthesis.World, steps []wire.PlanStep, cfg Config) (*Report, error) {
	// Phase 1: consistent snapshot under the strategy lock. prepare applies
	// the batch to a clone of the world to derive each step's Change, and
	// CollectAffected resolves the victims.
	var after *synthesis.World
	prepare := func() ([]synthesis.Change, error) {
		var changes []synthesis.Change
		var err error
		after, changes, err = w.After(steps)
		return changes, err
	}
	perChange, live, epoch, gen, err := srv.CollectAffected(prepare)
	if err != nil {
		return nil, err
	}
	perStep := dp.Predict(steps)

	rep := &Report{Epoch: epoch, Gen: gen}

	// Per-step incremental evictions over the snapshot. Union semantics
	// mirror sequential application exactly: a victim of step i that an
	// earlier step already evicted is gone by the time step i runs.
	evicted := make(map[routeserver.Key]routeserver.CacheEntry)
	for i, ents := range perChange {
		var sr StepReport
		for _, ent := range ents {
			if _, dup := evicted[ent.Key]; !dup {
				evicted[ent.Key] = ent
				sr.Evicted++
			}
		}
		sr.Retained = live - len(evicted)
		sr.Teardowns = len(perStep[i])
		rep.Teardowns = append(rep.Teardowns, perStep[i]...)
		rep.Steps = append(rep.Steps, sr)
	}
	rep.Retained = live - len(evicted)
	for k := range evicted {
		rep.EvictedKeys = append(rep.EvictedKeys, k)
	}
	sortRequests(rep.EvictedKeys)
	sort.Slice(rep.Teardowns, func(i, j int) bool { return rep.Teardowns[i] < rep.Teardowns[j] })

	// Affected population: recorded workload ∪ evicted pairs ∪ torn-down
	// flow intents, deduplicated by serving key and sorted.
	seen := make(map[routeserver.Key]struct{})
	add := func(req policy.Request) {
		if _, dup := seen[req]; !dup {
			seen[req] = struct{}{}
			rep.Population = append(rep.Population, req)
		}
	}
	for _, req := range cfg.Workload {
		add(req)
	}
	for _, k := range rep.EvictedKeys {
		add(k)
	}
	for _, h := range rep.Teardowns {
		if f, ok := dp.Flow(h); ok {
			add(f.Req)
		}
	}
	sortRequests(rep.Population)
	budget := cfg.Budget
	if budget == 0 {
		budget = 8192
	}
	if budget > 0 && len(rep.Population) > budget {
		rep.Population = rep.Population[:budget]
		rep.Truncated = true
	}

	// Phase 2: shadow re-synthesis against the world and its clone, outside
	// all server locks.
	rep.Impact = policytool.Classify(w, after, steps, rep.Population)

	// The re-synthesis bill: one synthesis per evicted key on its next
	// miss, priced from the live histogram.
	lat := srv.Snapshot().SynthLatency
	rep.Bill = Bill{
		Count:     len(rep.EvictedKeys),
		PerSynth:  lat.Mean,
		P95:       lat.P95,
		Projected: time.Duration(len(rep.EvictedKeys)) * lat.Mean,
	}
	return rep, nil
}

// sortRequests orders requests — cache keys are requests — by (Src, Dst,
// QOS, UCI, Hour).
func sortRequests(reqs []policy.Request) {
	sort.Slice(reqs, func(i, j int) bool { return keyLess(reqs[i], reqs[j]) })
}

func keyLess(a, b policy.Request) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.QOS != b.QOS {
		return a.QOS < b.QOS
	}
	if a.UCI != b.UCI {
		return a.UCI < b.UCI
	}
	return a.Hour < b.Hour
}

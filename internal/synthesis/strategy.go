package synthesis

import (
	"sync/atomic"

	"repro/internal/ad"
	"repro/internal/policy"
)

// StrategyStats instruments a synthesis strategy for experiment E7.
type StrategyStats struct {
	// PrecomputeExpansions is search work done up front.
	PrecomputeExpansions int
	// OnDemandExpansions is search work done at request time.
	OnDemandExpansions int
	// Hits are requests answered from the precomputed table.
	Hits int
	// Misses are requests the table could not answer: searched on demand,
	// or failed.
	Misses int
	// Failures are requests for which no legal route exists.
	Failures int
	// CacheEntries is the current size of the route table.
	CacheEntries int
	// Evictions is always 0: strategies hold no capacity-bounded state.
	Evictions int
}

// Strategy is a route synthesis strategy: given a traffic request, produce a
// legal route, accounting the work performed.
//
// A strategy is precomputed tables plus a pure search: Route reads a table
// or searches, and never remembers what it found — caching demand-computed
// routes is the serving layer's job (routeserver.Server), not the
// strategy's. So the contract is one sentence: tables and snapshot are
// immutable between write-plane rebuilds. The read plane — Route, Footprint,
// Stats, Name — takes no lock and is safe for any number of concurrent
// goroutines (counters are atomics merged on read). The write plane —
// Invalidate and InvalidateScoped — recompiles the snapshot of the graph and
// policy database, rebuilds the tables and requires exclusive access: no
// read-plane call may be in flight while a write-plane call runs. The
// serving layer enforces this with a reader/writer lock (misses hold the
// read side, mutations the write side); code driving a strategy directly
// must provide the same exclusion — and must announce every mutation of the
// graph or database with a write-plane call before it routes again: the
// read plane searches the snapshot, not the live maps, and panics rather
// than answer for a state that has moved on.
type Strategy interface {
	// Route returns a legal route for req, or false if none exists.
	// Read plane: safe to call concurrently.
	Route(req policy.Request) (ad.Path, bool)
	// Stats returns cumulative instrumentation. Read plane.
	Stats() StrategyStats
	// Invalidate discards cached state after a topology/policy change.
	// Write plane: requires exclusive access. Cumulative counters survive;
	// CacheEntries reflects the rebuilt tables at the next Stats call.
	Invalidate()
	// InvalidateScoped discards only cached state the change can affect;
	// a ChangeFull is equivalent to Invalidate. Recompute work is charged
	// to PrecomputeExpansions. Write plane: requires exclusive access.
	InvalidateScoped(c Change)
	// Footprint reports the dependency set of a route this strategy
	// returned for req. Read plane: safe to call concurrently.
	Footprint(req policy.Request, path ad.Path) Footprint
	// Name identifies the strategy in reports.
	Name() string
}

// Charger is a strategy that can state a found route's footprint as the
// serial of the term charged at each transit position (0 = none), the form
// FootprintOf expands: with it the route cache fills an entry without
// building a Footprint. AppendCharged is on the read plane, and for a path
// the strategy returned it appends exactly what Footprint's terms say.
type Charger interface {
	AppendCharged(dst []uint32, req policy.Request, path ad.Path) []uint32
}

// counters is the read-plane half of StrategyStats: every field Route
// touches is an atomic, so any number of goroutines can search (and account
// their work) at once while Stats merges a snapshot. They are never reset,
// which is how cumulative counters survive Invalidate.
type counters struct {
	precompute atomic.Int64
	onDemand   atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	failures   atomic.Int64
}

// cacheKey identifies a table entry. Hour is not part of the key: an entry
// remembers the hour it was computed for and is re-checked for legality
// when served at another (see lookup).
type cacheKey struct {
	src, dst ad.ID
	qos      policy.QOS
	uci      policy.UCI
}

func keyOf(req policy.Request) cacheKey {
	return cacheKey{src: req.Src, dst: req.Dst, qos: req.QOS, uci: req.UCI}
}

// entry is one precomputed route and the hour it was computed for.
type entry struct {
	path ad.Path
	hour uint8
}

// Table is the one strategy type: routes precomputed for a request
// population, and a pure search behind them. The four strategies of §5.4.1
// differ only in which population is precomputed and whether a table miss
// falls through to the search:
//
//	on-demand    nothing                       search  ("may introduce excessive latency at setup time")
//	precomputed  a fixed list                  fail    ("computationally intractable" in a large internet)
//	hybrid       a hot list                    search  ("a combination ... should be used")
//	pruned       each source's hop-radius      search  ("heuristics to prune the search and limit it
//	             neighbourhood, per class               to commonly used routes")
type Table struct {
	name string
	g    *ad.Graph
	db   *policy.DB
	// population lists the requests to precompute. It is evaluated on every
	// write-plane call: the pruned neighbourhood follows the topology.
	population func() []policy.Request
	// search makes a table miss fall through to FindRoute instead of failing.
	search bool
	// snap is g and db as of the last write-plane call, and all the read
	// plane ever searches or checks legality against; g and db themselves
	// are read only on the write plane, apart from their version counters.
	snap *Snapshot
	// routes is read by Route without a lock and mutated only on the write
	// plane.
	routes map[cacheKey]entry
	ctr    counters
}

func newTable(name string, g *ad.Graph, db *policy.DB, population func() []policy.Request, search bool) *Table {
	t := &Table{name: name, g: g, db: db, population: population, search: search,
		routes: make(map[cacheKey]entry)}
	t.Invalidate()
	return t
}

func fixed(reqs []policy.Request) func() []policy.Request {
	return func() []policy.Request { return reqs }
}

// NewOnDemand computes every route at request time: minimal state, maximal
// setup latency.
func NewOnDemand(g *ad.Graph, db *policy.DB) *Table {
	return newTable("on-demand", g, db, fixed(nil), true)
}

// NewPrecomputed computes routes for an anticipated request population up
// front; requests outside the table fail, which makes the cost of
// precomputing everything measurable.
func NewPrecomputed(g *ad.Graph, db *policy.DB, reqs []policy.Request) *Table {
	return newTable("precomputed", g, db, fixed(reqs), false)
}

// NewHybrid precomputes routes for a hot set of requests and searches on
// demand for the rest — the combination the paper recommends.
func NewHybrid(g *ad.Graph, db *policy.DB, hot []policy.Request) *Table {
	return newTable("hybrid", g, db, fixed(hot), true)
}

// PrunedConfig parameterizes the pruned-precompute strategy.
type PrunedConfig struct {
	// HopRadius bounds the precomputed neighbourhood (< 1 means 2).
	HopRadius int
	// QOSClasses / UCIClasses are the traffic class counts to precompute
	// over: the table is built for every (qos, uci) in
	// [0,QOSClasses) x [0,UCIClasses). Values < 1 mean class 0 only. The
	// cache key includes both classes, so a strategy precomputed for class
	// 0 only can never serve a class-1 request from its table.
	QOSClasses int
	UCIClasses int
}

// NewPruned builds the pruned-precompute strategy for the given sources with
// default traffic classes (class 0 only).
func NewPruned(g *ad.Graph, db *policy.DB, srcs []ad.ID, hopRadius int) *Table {
	return NewPrunedConfig(g, db, srcs, PrunedConfig{HopRadius: hopRadius})
}

// NewPrunedConfig builds the pruned-precompute strategy: for each source it
// precomputes routes only to destinations within HopRadius AD hops, on the
// observation that inter-AD traffic is dominated by nearby destinations;
// everything farther is searched on demand.
func NewPrunedConfig(g *ad.Graph, db *policy.DB, srcs []ad.ID, cfg PrunedConfig) *Table {
	if cfg.HopRadius < 1 {
		cfg.HopRadius = 2
	}
	cfg.QOSClasses = max(cfg.QOSClasses, 1)
	cfg.UCIClasses = max(cfg.UCIClasses, 1)
	return newTable("pruned", g, db, func() []policy.Request {
		var reqs []policy.Request
		for _, src := range srcs {
			for _, dst := range withinRadius(g, src, cfg.HopRadius) {
				for qos := 0; qos < cfg.QOSClasses; qos++ {
					for uci := 0; uci < cfg.UCIClasses; uci++ {
						reqs = append(reqs, policy.Request{
							Src: src, Dst: dst, Hour: 12,
							QOS: policy.QOS(qos), UCI: policy.UCI(uci),
						})
					}
				}
			}
		}
		return reqs
	}, true)
}

// withinRadius returns the ADs reachable from src within r hops (BFS on the
// raw topology, policy-blind — it is only a pruning heuristic).
func withinRadius(g *ad.Graph, src ad.ID, r int) []ad.ID {
	depth := map[ad.ID]int{src: 0}
	queue := []ad.ID{src}
	var out []ad.ID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if depth[cur] >= r {
			continue
		}
		for _, nb := range g.Neighbors(cur) {
			if _, seen := depth[nb]; seen {
				continue
			}
			depth[nb] = depth[cur] + 1
			out = append(out, nb)
			queue = append(queue, nb)
		}
	}
	return out
}

// Name implements Strategy.
func (t *Table) Name() string { return t.name }

// Route implements Strategy.
func (t *Table) Route(req policy.Request) (ad.Path, bool) {
	if p, ok := t.lookup(req); ok {
		return p, true
	}
	return t.miss(req)
}

// lookup serves req from the table, counting the hit. An entry computed for
// another hour is served only if it is legal at req's: term windows differ
// by hour, and a path that was the answer at noon may cross a term that is
// shut at 3 am. Such an entry is a table miss, not a failure.
//
// Every Route starts here, so this is where a mutation nobody announced is
// caught: the snapshot would answer for a state that no longer exists.
func (t *Table) lookup(req policy.Request) (ad.Path, bool) {
	if !t.snap.Current(t.g, t.db) {
		panic("synthesis: " + t.name + " strategy: graph/policy mutated without Invalidate")
	}
	e, ok := t.routes[keyOf(req)]
	if !ok || (e.hour != req.Hour && !t.snap.PathLegal(e.path, req)) {
		return nil, false
	}
	t.ctr.hits.Add(1)
	return e.path, true
}

// miss answers a request the table could not: by search, or not at all.
func (t *Table) miss(req policy.Request) (ad.Path, bool) {
	t.ctr.misses.Add(1)
	if t.search {
		res := t.snap.FindRoute(req)
		t.ctr.onDemand.Add(int64(res.Expanded))
		if res.Found {
			return res.Path, true
		}
	}
	t.ctr.failures.Add(1)
	return nil, false
}

// Stats implements Strategy.
func (t *Table) Stats() StrategyStats {
	return StrategyStats{
		PrecomputeExpansions: int(t.ctr.precompute.Load()),
		OnDemandExpansions:   int(t.ctr.onDemand.Load()),
		Hits:                 int(t.ctr.hits.Load()),
		Misses:               int(t.ctr.misses.Load()),
		Failures:             int(t.ctr.failures.Load()),
		CacheEntries:         len(t.routes),
	}
}

// Invalidate rebuilds the whole table, charging precompute work again.
func (t *Table) Invalidate() { t.InvalidateScoped(FullChange()) }

// InvalidateScoped drops the entries the change can affect and recomputes
// those the post-change population still asks for; the rest of the table
// keeps serving untouched. An entry that fell outside the population (a
// removed link can shrink the pruned neighbourhood) is retained while legal
// — the contract is legality, not population membership — and once dropped
// is left to the search. Population requests without an entry are computed
// when the change can have made them routable. A ChangeFull affects every
// entry, so it is a rebuild.
func (t *Table) InvalidateScoped(c Change) {
	t.snap = t.snap.Refresh(t.g, t.db)
	stale := make(map[cacheKey]bool)
	for k, e := range t.routes {
		if c.AffectsPath(e.path) {
			delete(t.routes, k)
			stale[k] = true
		}
	}
	for _, req := range t.population() {
		k := keyOf(req)
		if _, kept := t.routes[k]; kept {
			continue
		}
		if !stale[k] && !c.AffectsNegative() {
			continue // was unroutable, and the change cannot have helped
		}
		res := t.snap.FindRoute(req)
		t.ctr.precompute.Add(int64(res.Expanded))
		if res.Found {
			t.routes[k] = entry{path: res.Path, hour: req.Hour}
		}
	}
}

// Footprint implements Strategy.
func (t *Table) Footprint(req policy.Request, path ad.Path) Footprint {
	return t.snap.Footprint(req, path)
}

// AppendCharged implements Charger.
func (t *Table) AppendCharged(dst []uint32, req policy.Request, path ad.Path) []uint32 {
	return t.snap.AppendCharged(dst, req, path)
}

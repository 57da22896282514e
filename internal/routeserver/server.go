// Package routeserver is the concurrent serving layer over route synthesis:
// the paper's route servers (§5.4) synthesize policy routes on behalf of
// clients, and §5.4.1 leaves open how to make that fast at scale. This
// package wraps any synthesis.Strategy behind a thread-safe query engine:
//
//   - one route cache keyed by (src, dst, QOS, UCI, hour) whose hits take
//     no lock (see table.go: the table owns its entries; replacement is
//     CLOCK), purged outright on an unscoped topology/policy-change event,
//   - a reverse dependency index (link → entries, term → entries,
//     negative-entry set) fed by each route's synthesis.Footprint, so
//     MutateScoped evicts only the entries a change can affect while the
//     rest of the cache keeps serving with zero recomputation; an entry
//     stores its path and the serial of the term charged at each transit
//     AD, no footprint, and each bucket holds exactly its live entries,
//   - request coalescing in the same table: a key is resident, pending or
//     absent in the table, so concurrent misses for one key run one synthesis,
//   - a reader/writer strategy lock: misses for distinct keys synthesize
//     concurrently on the strategy's read plane (Route/Footprint are
//     concurrent-safe; see synthesis.Strategy), while mutations and
//     rebuilds take the write side and run exclusively,
//   - a bounded worker pool for miss computation, charged only for the
//     search itself — never for time spent waiting on a lock,
//   - an atomic server-metrics layer: exact query/hit/miss/coalesce
//     counters, which a hit bumps in its processor's padded stripe, and
//     histograms of synthesis times (the first miss and every 64th after
//     it) and of serving latency (p50/p95/p99; about one query in 64, drawn
//     at random).
//
// Correctness contract: a query observes either the state before an
// invalidation or after it, never a mix — an entry that is present is
// current. Every mutation runs under the write side of the strategy lock,
// which drains every in-flight synthesis first: a full invalidation then
// purges the cache, a scoped mutation evicts every dependent entry, both
// before any post-change synthesis can run; a computation still pending when
// the mutation returns has not searched yet, so a query that joins it gets a
// post-change answer. Entries retained across a scoped mutation are
// legal under the post-change state by construction (the change provably
// cannot affect them), though a broadening change may have created a
// cheaper route; callers that need optimality back use the full Mutate.
package routeserver

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ad"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/synthesis"
)

// Key is the serving-cache key: the request itself, every field. That
// includes the hour: term windows make a route's legality depend on it, so
// an answer cached for one hour is never served at another. (The
// strategies' precomputed tables are keyed without the hour and re-check
// legality instead; see synthesis.Table.)
type Key = policy.Request

// KeyOf derives the serving-cache key for a request: the identity.
func KeyOf(req policy.Request) Key { return req }

// hash is FNV-1a over the key's eleven bytes (Src and Dst little-endian,
// then QOS, UCI, Hour), written out straight: no slice, no closure. It
// places a key in the cache's index and nothing else: no output depends on
// it, since every walk of the cache is in ring-slot order. TestHashPinned
// holds it to the looped FNV-1a it replaced, so every byte of the key keeps
// reaching the index's home slot.
func hash(k Key) uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	h = (h ^ uint32(k.Src)&0xff) * prime
	h = (h ^ uint32(k.Src)>>8&0xff) * prime
	h = (h ^ uint32(k.Src)>>16&0xff) * prime
	h = (h ^ uint32(k.Src)>>24) * prime
	h = (h ^ uint32(k.Dst)&0xff) * prime
	h = (h ^ uint32(k.Dst)>>8&0xff) * prime
	h = (h ^ uint32(k.Dst)>>16&0xff) * prime
	h = (h ^ uint32(k.Dst)>>24) * prime
	h = (h ^ uint32(k.QOS)) * prime
	h = (h ^ uint32(k.UCI)) * prime
	h = (h ^ uint32(k.Hour)) * prime
	return h
}

// Result is one served route answer.
type Result struct {
	// Path is the synthesized route (nil when Found is false).
	Path ad.Path
	// Found reports whether a legal route exists.
	Found bool
}

// Config parameterizes a Server. The zero value is usable: 65536 entries,
// one miss worker per CPU.
type Config struct {
	// Capacity is the cache capacity in entries; a full cache replaces by
	// CLOCK (default 65536; < 0 = unbounded).
	Capacity int
	// Workers bounds concurrent miss computations (default GOMAXPROCS).
	// Coalesced waiters do not consume workers.
	Workers int
	// QueryLog, when > 0, keeps a bounded ring of the most recent queries.
	// The what-if plan engine replays it as the recorded workload, so
	// "which pairs lose all routes" reflects real traffic rather than just
	// cache residency. 0 disables recording.
	QueryLog int
}

func (c Config) normalize() Config {
	if c.Capacity == 0 {
		c.Capacity = 1 << 16
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Metrics is the server's atomic instrumentation. Read it via Snapshot.
// There is no query counter: every query is a hit, a miss or a coalesced
// wait, so Snapshot sums them.
type Metrics struct {
	stripes         *[stripes]stripe // hits and failures
	local           sync.Pool        // *stripe: a processor keeps the one it last used
	dealt           atomic.Uint32    // stripes handed to local.New so far
	misses          atomic.Uint64    // leaders = synthesis computations
	coalesced       atomic.Uint64    // waiters served by another query's computation
	evictions       atomic.Uint64
	invalidations   atomic.Uint64
	scopedMutations atomic.Uint64
	scopedEvicted   atomic.Uint64
	scopedRetained  atomic.Uint64
	latency         metrics.Histogram
	synthLat        metrics.Histogram
}

// stripe is one query's share of the counters a hit bumps, a cache line of
// its own, and Snapshot sums them. A query takes its stripe from
// Metrics.local, whose per-processor cache hands each processor the stripe it
// used last: two cores serving hits write two lines, each staying in its
// core's cache. (Picked at random, each line would pass between the cores
// on about every other hit.) When the pool is emptied by a collection, New
// deals the stripes round-robin again: stripes are never added, and two
// processors that come to share one only share a line.
type stripe struct {
	hits     atomic.Uint64
	failures atomic.Uint64
	_        [64 - 16]byte
}

// stripes is a power of two. The array's 1 KB allocation is aligned to its
// size, so each stripe is one cache line.
const stripes = 16

// MetricsSnapshot is a point-in-time copy of the server counters.
type MetricsSnapshot struct {
	// Queries is the total query count; every query is exactly one of a
	// Hit, a Miss (it ran the synthesis), or a Coalesced wait.
	Queries uint64
	// Hits were served from the cache.
	Hits uint64
	// Misses ran a synthesis computation (the leaders).
	Misses uint64
	// Coalesced joined another query's in-flight computation.
	Coalesced uint64
	// Failures are queries answered "no legal route".
	Failures uint64
	// Evictions counts cache entries dropped for capacity.
	Evictions uint64
	// Invalidations counts full invalidations (each purges the cache).
	Invalidations uint64
	// ScopedMutations counts MutateScoped calls that took the scoped
	// (non-full) eviction path.
	ScopedMutations uint64
	// ScopedEvicted is the total entries evicted by scoped mutations.
	ScopedEvicted uint64
	// ScopedRetained is the total entries retained across scoped
	// mutations (resident entries summed after each scoped eviction).
	ScopedRetained uint64
	// Latency digests serving latency over a sample: each query is drawn
	// with probability 1/64, so Latency.Count is about Queries/64.
	Latency metrics.LatencySummary
	// SynthLatency digests the wall time of synthesis computations
	// (strategy route + footprint extraction, under the strategy lock): the
	// first miss and every 64th after it. The plan engine projects the
	// re-synthesis bill from it.
	SynthLatency metrics.LatencySummary
}

// HitRate returns the fraction of queries served without running a
// synthesis (cache hits plus coalesced waits).
func (s MetricsSnapshot) HitRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(s.Queries)
}

// Server is the concurrent route-query engine. Queries may be issued from
// any number of goroutines; Mutate and MutateScoped may run concurrently with
// queries.
type Server struct {
	epoch   atomic.Uint64 // bumped by full AND scoped mutations; see Epoch
	tab     table
	met     Metrics
	workers chan struct{}
	// stratMu splits the strategy into a concurrent-read plane and an
	// exclusive-write plane: misses hold the read side while they search
	// (synthesis.Strategy's Route/Footprint/Stats are concurrent-safe),
	// mutations and rebuilds hold the write side. The cache is purged only
	// under the write side, so a read-side holder inserts into a cache no
	// invalidation can cross for the duration of its hold. An insert holds
	// tab.mu across the put, the claim withdrawal and the OnInsert hook, so
	// HA replication observes puts in one total order; mutations order
	// against inserts through stratMu itself (the write side drains every
	// reader first). Lock order is stratMu(R) → tab.mu, nowhere reversed.
	stratMu  sync.RWMutex
	strategy synthesis.Strategy
	charger  synthesis.Charger // strategy, when it is one
	onInsert func(Key, Result, synthesis.Footprint)
	qlog     queryLog
	// afterLookupMiss, when set (by tests, before serving), runs in Query
	// between the cache lookup that missed and the claim: it lets a test
	// park a query in exactly that window.
	afterLookupMiss func()
}

// queryLog is the bounded ring of recent queries (Config.QueryLog). The
// cursor is an atomic ticket counter and each slot holds its request packed
// into atomic words, so hot-path queries never contend on a log lock and
// never allocate. buf is sized once at construction and never resized, so
// its length may be read without synchronization.
//
// Serially the semantics match the old mutex ring exactly: the last
// len(buf) requests in arrival order, oldest first. Under concurrent
// recording "arrival order" is ticket order; a reader racing writers may
// observe a slot whose store has not landed yet (skipped) or one already
// overwritten by a newer request (still a recent query, surfaced slightly
// early) — recent() is a workload sample, not a transaction log, and the
// plan engine tolerates both.
type queryLog struct {
	next atomic.Uint64
	buf  []querySlot
}

// querySlot is a sequence lock with many writers. seq is 0 while the slot
// has never been written, 2t+1 while ticket t's writer owns it and 2t+2
// once ticket t's request is whole. A writer claims the slot by
// compare-and-swap from an even value below its own, so two writers a full
// lap apart never interleave their words: the one that cannot claim — the
// slot is mid-write, or already holds a newer ticket — drops its record.
type querySlot struct {
	seq   atomic.Uint64
	ends  atomic.Uint64 // Src<<32 | Dst
	class atomic.Uint32 // QOS<<16 | UCI<<8 | Hour
}

func (q *queryLog) record(req policy.Request) {
	if len(q.buf) == 0 {
		return
	}
	t := q.next.Add(1) - 1
	sl := &q.buf[t%uint64(len(q.buf))]
	seq := sl.seq.Load()
	if seq&1 == 1 || seq > 2*t || !sl.seq.CompareAndSwap(seq, 2*t+1) {
		return
	}
	sl.ends.Store(uint64(req.Src)<<32 | uint64(req.Dst))
	sl.class.Store(uint32(req.QOS)<<16 | uint32(req.UCI)<<8 | uint32(req.Hour))
	sl.seq.Store(2*t + 2)
}

func (q *queryLog) recent() []policy.Request {
	n := uint64(len(q.buf))
	if n == 0 {
		return nil
	}
	t := q.next.Load()
	start := uint64(0)
	if t > n {
		start = t - n
	}
	var out []policy.Request
	for i := start; i < t; i++ {
		sl := &q.buf[i%n]
		seq := sl.seq.Load()
		if seq == 0 || seq&1 == 1 {
			continue
		}
		ends, class := sl.ends.Load(), sl.class.Load()
		if sl.seq.Load() != seq {
			continue
		}
		out = append(out, policy.Request{
			Src: ad.ID(ends >> 32), Dst: ad.ID(ends),
			QOS: policy.QOS(class >> 16), UCI: policy.UCI(class >> 8), Hour: uint8(class),
		})
	}
	return out
}

// New wraps the strategy in a serving layer. The strategy must not be used
// directly while the server is live: the server owns it, driving the
// concurrent read plane from miss computations and taking exclusive access
// for every mutation (see synthesis.Strategy for the two-plane contract).
func New(strategy synthesis.Strategy, cfg Config) *Server {
	cfg = cfg.normalize()
	s := &Server{
		workers:  make(chan struct{}, cfg.Workers),
		strategy: strategy,
	}
	s.charger, _ = strategy.(synthesis.Charger)
	s.met.stripes = new([stripes]stripe)
	s.met.local.New = func() any { return &s.met.stripes[s.met.dealt.Add(1)%stripes] }
	s.tab.capacity = max(cfg.Capacity, 0)
	s.tab.pending = make(map[Key]*call)
	s.tab.purge()
	if cfg.QueryLog > 0 {
		s.qlog.buf = make([]querySlot, cfg.QueryLog)
	}
	return s
}

// Generation returns the number of full invalidations so far: how many
// times the whole cache has been purged.
func (s *Server) Generation() uint64 { return s.met.invalidations.Load() }

// Epoch returns the mutation epoch. Unlike the generation it is bumped by
// every mutation, full or scoped — but not by routine cache fills — so the
// plan/commit staleness guard compares it: a commit is refused exactly
// when a conflicting mutation landed after the plan was computed.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// RecentQueries returns the last Config.QueryLog queries in arrival order
// (oldest first), or nil when recording is disabled. The plan engine
// replays them as the recorded workload.
func (s *Server) RecentQueries() []policy.Request { return s.qlog.recent() }

// insert stores an entry and indexes its dependency edges. Every caller
// holds at least the read side of stratMu from before the search to after
// the insert, and the cache is purged only under the write side, so a result
// computed against one state never lands behind a full invalidation. Caller
// holds tab.mu.
func (s *Server) insert(e *entry) {
	if s.tab.put(e, hash(e.key)) {
		s.met.evictions.Add(1)
	}
}

// Query answers one route request. Safe for concurrent use.
func (s *Server) Query(req policy.Request) Result {
	// The stripe is this processor's, and the latency sample a draw from the
	// calling thread's generator: nothing shared is written.
	st := s.met.local.Get().(*stripe)
	var res Result
	if rand.Uint32()%latencySample != 0 {
		res = s.serve(req, st)
	} else {
		start := time.Now()
		res = s.serve(req, st)
		s.met.latency.Observe(time.Since(start))
	}
	s.met.local.Put(st)
	return res
}

// latencySample is how many queries, or misses, share one latency
// observation: a clock read costs a cached answer a third of its time, and
// the quantiles do not need every query.
const latencySample = 64

// serve answers from the cache: a lock-free get, and when that misses a
// claim, which makes the query a hit after all, a waiter on the key's
// pending computation, or its leader.
func (s *Server) serve(req policy.Request, st *stripe) Result {
	s.qlog.record(req)

	h := hash(req)
	e := s.tab.get(req, h)
	var c *call
	var lead bool
	if e == nil {
		if s.afterLookupMiss != nil {
			s.afterLookupMiss()
		}
		e, c, lead = s.tab.claim(req, h)
	}
	var res Result
	switch {
	case e != nil:
		res = e.result()
		st.hits.Add(1)
	case lead:
		res = s.lead(req, c)
	default:
		c.wg.Wait()
		res = c.res
		s.met.coalesced.Add(1)
	}
	if !res.Found {
		st.failures.Add(1)
	}
	return res
}

// lead computes the key this query claimed and releases the queries waiting
// on c. If the computation panics, the leader withdraws the claim here
// unless its insert already had, and re-panics; its waiters observe the zero
// Result ("no legal route") rather than blocking forever. The miss count is
// its ticket for the synthesis-latency sample.
func (s *Server) lead(k Key, c *call) Result {
	done := false
	defer func() {
		if !done {
			s.tab.mu.Lock()
			if s.tab.pending[k] == c {
				delete(s.tab.pending, k)
			}
			s.tab.mu.Unlock()
		}
		c.wg.Done()
	}()
	c.res = s.compute(k, s.met.misses.Add(1)%latencySample == 1)
	done = true
	return c.res
}

// compute runs one synthesis on the strategy's read plane, then caches the
// result (negative results too — repeated queries for an unroutable pair
// must not re-run the search). Any number of computations for distinct keys
// run concurrently; a mutation takes the write side of stratMu and
// therefore waits for every in-flight search, so every in-flight result is
// either inserted before the purge or scoped eviction runs (and dropped if
// dependent) or computed after the mutation (and already post-change) —
// never a stale result landing behind a completed invalidation. The insert,
// the claim's withdrawal and the OnInsert hook run under tab.mu while still
// holding the read side: inserts form one total order among themselves, and
// order against mutations through stratMu, so HA replication replays puts
// and control mutations in stream order. A result the table refuses (a
// footprint that is not its path's, entry.charge, or a route longer than
// maxRoute) is answered but not cached.
//
// Unlock via defer throughout: a panicking strategy must not leave the
// strategy lock held, or every later query and mutation would deadlock.
func (s *Server) compute(req policy.Request, timed bool) Result {
	s.stratMu.RLock()
	defer s.stratMu.RUnlock()
	res, e := s.search(req, timed)
	s.tab.mu.Lock()
	defer s.tab.mu.Unlock()
	if e != nil {
		s.insert(e)
		if s.onInsert != nil {
			s.onInsert(req, res, e.footprint())
		}
	}
	delete(s.tab.pending, req)
	return res
}

// search runs the strategy search and builds the answer's entry, charged
// with the route's footprint, under a worker slot; the entry is nil when the
// table refuses it. The slot is acquired here — after the strategy lock,
// around the search alone — so the pool bounds actual synthesis work;
// goroutines blocked on a lock hold no slot. A strategy that is a Charger
// writes its serials straight into the entry. Caller holds the read side of
// stratMu.
func (s *Server) search(req policy.Request, timed bool) (Result, *entry) {
	s.workers <- struct{}{}
	defer func() { <-s.workers }()

	if timed {
		synthStart := time.Now()
		defer func() { s.met.synthLat.Observe(time.Since(synthStart)) }()
	}
	path, found := s.strategy.Route(req)
	res := Result{Path: path, Found: found}
	e := newEntry(req, res)
	switch {
	case e == nil || !found: // refused already, or nothing to charge
	case s.charger != nil:
		if len(s.charger.AppendCharged(e.charged()[:0], req, path)) != transits(path) {
			e = nil
		}
	case !e.charge(s.strategy.Footprint(req, path)):
		e = nil
	}
	return res, e
}

// Mutate applies fn — which may mutate the graph or policy database the
// strategy synthesizes over — with exclusive access, then invalidates the
// whole cache. Use this for unscoped changes on a live server; queries
// that hit the cache keep being served concurrently (pre-change answers)
// until the purge lands.
func (s *Server) Mutate(fn func()) {
	s.MutateScoped(synthesis.FullChange(), fn)
}

// MutateScoped applies fn with exclusive access, then evicts only the
// cache entries the change can affect, resolved through the reverse
// dependency index: routes crossing a failed link, routes admitted by a
// removed or modified policy term, and — when the change broadens what is
// routable (link restored, terms added) — cached negative answers.
// Everything else keeps serving with zero recomputation. The wrapped
// strategy gets the same change for partial invalidation of its own
// tables. A ChangeFull purges the whole cache instead.
//
// Returns the evicted and retained entry counts; a full change resolves no
// victims and reports (0, 0).
func (s *Server) MutateScoped(ch synthesis.Change, fn func()) (evicted, retained int) {
	s.stratMu.Lock()
	defer s.stratMu.Unlock()
	if fn != nil {
		fn()
	}
	s.epoch.Add(1)
	if ch.Kind == synthesis.ChangeFull {
		s.tab.mu.Lock()
		s.tab.purge()
		s.tab.mu.Unlock()
		s.strategy.Invalidate()
		s.met.invalidations.Add(1)
		return 0, 0
	}
	// Every pre-mutation search finished under the read side of stratMu —
	// which acquiring the write side drained — and is indexed by now.
	s.tab.mu.Lock()
	evicted = s.tab.evictScoped(ch)
	retained = s.tab.live
	s.tab.mu.Unlock()
	s.strategy.InvalidateScoped(ch)
	s.met.scopedMutations.Add(1)
	s.met.scopedEvicted.Add(uint64(evicted))
	s.met.scopedRetained.Add(uint64(retained))
	return evicted, retained
}

// OnInsert registers a hook called — under the table's lock, in one total
// order with every other insert, and ordered against mutations by
// the strategy lock — every time a computed result is inserted into the
// cache. HA replication uses it to append cache puts to the sync backlog;
// entries installed via InstallEntry do not fire it (a follower must not
// re-replicate what it is replaying). Set it before the server starts
// serving.
func (s *Server) OnInsert(fn func(Key, Result, synthesis.Footprint)) {
	s.stratMu.Lock()
	defer s.stratMu.Unlock()
	s.onInsert = fn
}

// CacheEntry is one exported warm-cache entry: key, answer, and the
// dependency footprint that feeds the reverse index. DumpEntries returns
// them and InstallEntry re-creates them, which is how a primary ships its
// warm state to followers.
type CacheEntry struct {
	Key Key
	Res Result
	Fp  synthesis.Footprint
}

// InstallEntry inserts a replicated entry, indexing its footprint exactly
// as a computed result would be: read side of the strategy lock (so
// installs order against mutations) plus the table's lock (so they order
// against concurrent computed inserts). The OnInsert hook does not fire. An
// entry the table refuses (a footprint that is not its path's, or a route
// longer than maxRoute) leaves the cache as it was.
func (s *Server) InstallEntry(k Key, res Result, fp synthesis.Footprint) {
	e := newEntry(k, res)
	if e == nil || !e.charge(fp) {
		return
	}
	s.stratMu.RLock()
	defer s.stratMu.RUnlock()
	s.tab.mu.Lock()
	defer s.tab.mu.Unlock()
	s.insert(e)
}

// DumpEntries copies every cache entry under the write side of the
// strategy lock — draining every in-flight miss — so the dump is a
// consistent cut: no mutation or insert can interleave with it. fn
// (optional) runs first under the same lock hold — HA replication uses it
// to record the sync-backlog position the cut corresponds to, making
// snapshot + subsequent incremental entries seamless.
func (s *Server) DumpEntries(fn func()) []CacheEntry {
	s.stratMu.Lock()
	defer s.stratMu.Unlock()
	if fn != nil {
		fn()
	}
	var out []CacheEntry
	s.tab.mu.Lock()
	s.tab.each(func(e *entry) { out = append(out, e.export()) })
	s.tab.mu.Unlock()
	return out
}

// CollectAffected is the read-only half of scoped invalidation, built for
// the what-if plan engine. It runs prepare under the read side of the
// strategy lock — the engine uses it to clone the graph/policy state and
// derive the batch's changes from a cut no mutation can move (the epoch
// guard catches any mutation that lands after) — then resolves each
// returned change's victims through the same reverse indexes and soundness
// rules evictScoped applies, without deleting anything. Holding only the
// read side means concurrent queries keep being served, including misses;
// a routine fill landing mid-scan is invisible to the prediction, exactly
// as a fill landing between plan and commit always was (fills bump no
// epoch). It returns the victim entries per change, the resident entry
// count, and the epoch/generation the snapshot corresponds to. Nothing a
// query can observe is mutated, and the cost is proportional to the
// changes' blast radius (index fan-out), not to the cache size.
func (s *Server) CollectAffected(prepare func() ([]synthesis.Change, error)) (perChange [][]CacheEntry, live int, epoch, gen uint64, err error) {
	s.stratMu.RLock()
	defer s.stratMu.RUnlock()
	changes, err := prepare()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	gen = s.Generation()
	epoch = s.epoch.Load()
	perChange = make([][]CacheEntry, len(changes))
	s.tab.mu.Lock()
	defer s.tab.mu.Unlock()
	for ci := range changes {
		for _, e := range s.tab.victims(changes[ci]) {
			perChange[ci] = append(perChange[ci], e.export())
		}
	}
	return perChange, s.tab.live, epoch, gen, nil
}

// StrategyStats returns the wrapped strategy's cumulative instrumentation.
// Stats is on the strategy's read plane, so the read side suffices: the
// snapshot never shears against a rebuild.
func (s *Server) StrategyStats() synthesis.StrategyStats {
	s.stratMu.RLock()
	defer s.stratMu.RUnlock()
	return s.strategy.Stats()
}

// StrategyName names the wrapped strategy.
func (s *Server) StrategyName() string { return s.strategy.Name() }

// CacheLen returns the number of cached entries, every one of them current.
func (s *Server) CacheLen() int {
	s.tab.mu.Lock()
	defer s.tab.mu.Unlock()
	return s.tab.live
}

// Snapshot returns a point-in-time copy of the server metrics.
func (s *Server) Snapshot() MetricsSnapshot {
	var hits, failures uint64
	for i := range s.met.stripes {
		hits += s.met.stripes[i].hits.Load()
		failures += s.met.stripes[i].failures.Load()
	}
	misses, coalesced := s.met.misses.Load(), s.met.coalesced.Load()
	return MetricsSnapshot{
		Queries:         hits + misses + coalesced,
		Hits:            hits,
		Misses:          misses,
		Coalesced:       coalesced,
		Failures:        failures,
		Evictions:       s.met.evictions.Load(),
		Invalidations:   s.met.invalidations.Load(),
		ScopedMutations: s.met.scopedMutations.Load(),
		ScopedEvicted:   s.met.scopedEvicted.Load(),
		ScopedRetained:  s.met.scopedRetained.Load(),
		Latency:         s.met.latency.Snapshot(),
		SynthLatency:    s.met.synthLat.Snapshot(),
	}
}

// Package routeserver is the concurrent serving layer over route synthesis:
// the paper's route servers (§5.4) synthesize policy routes on behalf of
// clients, and §5.4.1 leaves open how to make that fast at scale. This
// package wraps any synthesis.Strategy behind a thread-safe query engine:
//
//   - a sharded route cache keyed by (src, dst, QOS, UCI, hour) whose hits
//     take no lock (see table.go: each shard owns its entries; replacement
//     is CLOCK), purged outright on an unscoped topology/policy-change
//     event,
//   - a per-shard reverse dependency index (link → entries, term → entries,
//     negative-entry set) fed by each route's synthesis.Footprint, so
//     MutateScoped evicts only the entries a change can affect while the
//     rest of the cache keeps serving with zero recomputation,
//   - request coalescing in the same table: a key is resident, pending or
//     absent in its shard, so concurrent misses for one key run one synthesis,
//   - a reader/writer strategy lock: misses for distinct keys synthesize
//     concurrently on the strategy's read plane (Route/Footprint are
//     concurrent-safe; see synthesis.Strategy), while mutations and
//     rebuilds take the write side and run exclusively,
//   - a bounded worker pool for miss computation, charged only for the
//     search itself — never for time spent waiting on a lock,
//   - an atomic server-metrics layer: exact query/hit/miss/coalesce
//     counters, an exact histogram of synthesis times, and a serving-latency
//     histogram (p50/p95/p99) over a 1-in-64 sample of queries.
//
// Correctness contract: a query observes either the state before an
// invalidation or after it, never a mix — an entry that is present is
// current. Every mutation runs under the write side of the strategy lock,
// which drains every in-flight synthesis first: a full invalidation then
// purges every shard, a scoped mutation evicts every dependent entry, both
// before any post-change synthesis can run; a computation still pending when
// the mutation returns has not searched yet, so a query that joins it gets a
// post-change answer. Entries retained across a scoped mutation are
// legal under the post-change state by construction (the change provably
// cannot affect them), though a broadening change may have created a
// cheaper route; callers that need optimality back use the full Mutate.
package routeserver

import (
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
// then QOS, UCI, Hour), written out straight: no slice, no closure. Its low
// bits pick the cache shard, so DumpEntries and HA snapshot order depend on
// it; TestHashPinned holds the values.
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

// Config parameterizes a Server. The zero value is usable: 16 shards,
// 65536 total entries, one miss worker per CPU.
type Config struct {
	// Shards is the cache shard count, rounded up to a power of two
	// (default 16). Hits take no lock; more shards = less contention among
	// inserts and evictions, which lock one shard each.
	Shards int
	// Capacity is the total cache capacity in entries, split evenly
	// across shards, each of which replaces by CLOCK once full (default
	// 65536; < 0 = unbounded).
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
	if c.Shards <= 0 {
		c.Shards = 16
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.Capacity == 0 {
		c.Capacity = 1 << 16
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Metrics is the server's atomic instrumentation. Read it via Snapshot.
type Metrics struct {
	queries         atomic.Uint64
	hits            atomic.Uint64
	misses          atomic.Uint64 // leaders = synthesis computations
	coalesced       atomic.Uint64 // waiters served by another query's computation
	failures        atomic.Uint64
	evictions       atomic.Uint64
	invalidations   atomic.Uint64
	scopedMutations atomic.Uint64
	scopedEvicted   atomic.Uint64
	scopedRetained  atomic.Uint64
	latency         metrics.Histogram
	synthLat        metrics.Histogram
}

// MetricsSnapshot is a point-in-time copy of the server counters.
type MetricsSnapshot struct {
	// Queries is the total query count; every query is exactly one of a
	// Hit, a Miss (it ran the synthesis), or a Coalesced wait.
	Queries uint64
	// Hits were served from the sharded cache.
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
	// Latency digests serving latency over a sample: the first query and
	// every 64th after it, so Latency.Count is Queries/64 rounded up.
	Latency metrics.LatencySummary
	// SynthLatency digests the wall time of each synthesis computation
	// (strategy route + footprint extraction, under the strategy lock).
	// The plan engine projects the re-synthesis bill from it.
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
	cfg     Config
	epoch   atomic.Uint64 // bumped by full AND scoped mutations; see Epoch
	shards  []shard
	mask    uint32
	met     Metrics
	workers chan struct{}
	// stratMu splits the strategy into a concurrent-read plane and an
	// exclusive-write plane: misses hold the read side while they search
	// (synthesis.Strategy's Route/Footprint/Stats are concurrent-safe),
	// mutations and rebuilds hold the write side. The cache is purged only
	// under the write side, so a read-side holder inserts into a cache no
	// invalidation can cross for the duration of its hold.
	stratMu sync.RWMutex
	// seqMu sequences cache inserts and the OnInsert hook among concurrent
	// read-side holders, so HA replication observes puts in one total
	// order; mutations order against inserts through stratMu itself (the
	// write side drains every reader first). Lock order is
	// stratMu(R) → seqMu → shard.mu, nowhere reversed.
	seqMu    sync.Mutex
	strategy synthesis.Strategy
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
		cfg:      cfg,
		shards:   make([]shard, cfg.Shards),
		mask:     uint32(cfg.Shards - 1),
		workers:  make(chan struct{}, cfg.Workers),
		strategy: strategy,
	}
	perShard := 0 // unbounded
	if cfg.Capacity > 0 {
		perShard = (cfg.Capacity + cfg.Shards - 1) / cfg.Shards
	}
	for i := range s.shards {
		s.shards[i].capacity = perShard
		s.shards[i].pending = make(map[Key]*call)
		s.shards[i].purge()
	}
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

// insert stores a result and indexes its dependency footprint; a leader's
// insert withdraws its claim on k in the same critical section. Every caller
// holds at least the read side of stratMu from before the search to after
// the insert, and the cache is purged only under the write side, so a result
// computed against one state never lands behind a full invalidation.
func (s *Server) insert(k Key, res Result, fp synthesis.Footprint, lead bool) {
	h := hash(k)
	sh := &s.shards[h&s.mask]
	sh.mu.Lock()
	evicted := sh.put(k, h, res, fp)
	if lead {
		delete(sh.pending, k)
	}
	sh.mu.Unlock()
	if evicted {
		s.met.evictions.Add(1)
	}
}

// Query answers one route request. Safe for concurrent use.
func (s *Server) Query(req policy.Request) Result {
	if s.met.queries.Add(1)%latencySample != 1 {
		return s.serve(req)
	}
	start := time.Now()
	res := s.serve(req)
	s.met.latency.Observe(time.Since(start))
	return res
}

// latencySample is how many queries share one latency observation: a clock
// read costs a cached answer a third of its time, and the quantiles do not
// need every query. The counter every query bumps anyway picks the sample,
// so sampling adds no shared write.
const latencySample = 64

// serve answers from the shard that owns the key: a lock-free get, and when
// that misses a claim, which makes the query a hit after all, a waiter on
// the key's pending computation, or its leader.
func (s *Server) serve(req policy.Request) Result {
	s.qlog.record(req)

	h := hash(req)
	sh := &s.shards[h&s.mask]
	e := sh.get(req, h)
	var c *call
	var lead bool
	if e == nil {
		if s.afterLookupMiss != nil {
			s.afterLookupMiss()
		}
		e, c, lead = sh.claim(req, h)
	}
	var res Result
	switch {
	case e != nil:
		res = e.result()
		s.met.hits.Add(1)
	case lead:
		res = s.lead(sh, req, c)
		s.met.misses.Add(1)
	default:
		c.wg.Wait()
		res = c.res
		s.met.coalesced.Add(1)
	}
	if !res.Found {
		s.met.failures.Add(1)
	}
	return res
}

// lead computes the key this query claimed and releases the queries waiting
// on c. If the computation panics, the leader withdraws the claim here
// unless its insert already had, and re-panics; its waiters observe the zero
// Result ("no legal route") rather than blocking forever.
func (s *Server) lead(sh *shard, k Key, c *call) Result {
	done := false
	defer func() {
		if !done {
			sh.mu.Lock()
			if sh.pending[k] == c {
				delete(sh.pending, k)
			}
			sh.mu.Unlock()
		}
		c.wg.Done()
	}()
	c.res = s.compute(k)
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
// never a stale result landing behind a completed invalidation. The insert
// and the OnInsert hook run under seqMu while still holding the read side:
// inserts form one total order among themselves, and order against
// mutations through stratMu, so HA replication replays puts and control
// mutations in stream order.
//
// Unlock via defer throughout: a panicking strategy must not leave the
// strategy lock held, or every later query and mutation would deadlock.
func (s *Server) compute(req policy.Request) Result {
	s.stratMu.RLock()
	defer s.stratMu.RUnlock()
	res, fp := s.search(req)
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	s.insert(req, res, fp, true)
	if s.onInsert != nil {
		s.onInsert(req, res, fp)
	}
	return res
}

// search runs the strategy search and footprint extraction under a worker
// slot. The slot is acquired here — after the strategy lock, around the
// search alone — so the pool bounds actual synthesis work; goroutines
// blocked on a lock hold no slot. Caller holds the read side of stratMu.
func (s *Server) search(req policy.Request) (Result, synthesis.Footprint) {
	s.workers <- struct{}{}
	defer func() { <-s.workers }()

	synthStart := time.Now()
	defer func() { s.met.synthLat.Observe(time.Since(synthStart)) }()
	path, found := s.strategy.Route(req)
	res := Result{Path: path, Found: found}
	var fp synthesis.Footprint
	if found {
		fp = s.strategy.Footprint(req, path)
	}
	return res, fp
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
// tables. A ChangeFull purges every shard instead.
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
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			sh.purge()
			sh.mu.Unlock()
		}
		s.strategy.Invalidate()
		s.met.invalidations.Add(1)
		return 0, 0
	}
	// Every pre-mutation search finished under the read side of stratMu —
	// which acquiring the write side drained — and is indexed by now.
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		evicted += sh.evictScoped(ch)
		retained += sh.live
		sh.mu.Unlock()
	}
	s.strategy.InvalidateScoped(ch)
	s.met.scopedMutations.Add(1)
	s.met.scopedEvicted.Add(uint64(evicted))
	s.met.scopedRetained.Add(uint64(retained))
	return evicted, retained
}

// OnInsert registers a hook called — under the insert sequencer, in one
// total order with every other insert, and ordered against mutations by
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
// installs order against mutations) plus the insert sequencer (so they
// order against concurrent computed inserts). The OnInsert hook does not
// fire.
func (s *Server) InstallEntry(k Key, res Result, fp synthesis.Footprint) {
	s.stratMu.RLock()
	defer s.stratMu.RUnlock()
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	s.insert(k, res, fp, false)
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
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.each(func(e *entry) { out = append(out, e.export()) })
		sh.mu.Unlock()
	}
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
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		live += sh.live
		for ci := range changes {
			for _, e := range sh.victims(changes[ci]) {
				perChange[ci] = append(perChange[ci], e.export())
			}
		}
		sh.mu.Unlock()
	}
	return perChange, live, epoch, gen, nil
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
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.live
		sh.mu.Unlock()
	}
	return n
}

// Snapshot returns a point-in-time copy of the server metrics.
func (s *Server) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Queries:         s.met.queries.Load(),
		Hits:            s.met.hits.Load(),
		Misses:          s.met.misses.Load(),
		Coalesced:       s.met.coalesced.Load(),
		Failures:        s.met.failures.Load(),
		Evictions:       s.met.evictions.Load(),
		Invalidations:   s.met.invalidations.Load(),
		ScopedMutations: s.met.scopedMutations.Load(),
		ScopedEvicted:   s.met.scopedEvicted.Load(),
		ScopedRetained:  s.met.scopedRetained.Load(),
		Latency:         s.met.latency.Snapshot(),
		SynthLatency:    s.met.synthLat.Snapshot(),
	}
}
